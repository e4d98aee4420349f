//! Per-kernel Paillier throughput at the paper's key sizes — the crypto
//! half of the repo's perf trajectory (`BENCH_crypto.json`).
//!
//! Measures ops/sec for every kernel the protocols bottom out in:
//! encryption (fresh and pooled-randomizer), randomizer precompute on
//! both lanes (classic public-key vs the key owner's half-width CRT
//! legs), the homomorphic operators (including the fused `affine`
//! against its unfused `mul_plain` + `add_plain` chain and the
//! power-of-two squaring path), raw vs comb fixed-base exponentiation,
//! and decryption on both the CRT fast path and the classic full-width
//! path (the pre-overhaul kernel, kept as the speedup baseline).
//!
//! The comparison's oblivious transfers get rows of their own, per OT
//! group rather than per key size, measured interleaved: one transfer
//! (`ot_single`, a batch of one), one 64-transfer batch (`ot_batch64`,
//! the comparator's shape) and the whole 64-bit comparison
//! (`compare64`: garbling, the batched OT and evaluation).
//!
//! ```text
//! cargo run --release -p pem-bench --bin crypto_kernels -- \
//!     --bits 512,1024,2048 --min-time-ms 300 --run-label dev
//! ```
//!
//! The OT rows always cover all three OT groups; `--bits none` skips the
//! Paillier half. Output: one JSON
//! *trajectory run* (`{"run": …, "entries": […]}`, an entry per key size
//! keyed by `key_bits`, then one per OT group keyed by `ot_group`)
//! followed by a human-readable table. CI runs a
//! reduced smoke sweep and uploads the JSON; `BENCH_crypto.json` at the
//! repo root pins the committed trajectory — an array of such runs, one
//! per engine generation.

use std::time::Instant;

use pem_bench::Args;
use pem_bignum::{BigUint, Montgomery};
use pem_circuit::compare::secure_less_than_local;
use pem_core::OtProfile;
use pem_crypto::drbg::HashDrbg;
use pem_crypto::ot::{run_local_ot, OtBatchReceiver, OtBatchSender};
use pem_crypto::paillier::{Ciphertext, Keypair, PrivateKey, PublicKey, Randomizer};
use rand::RngCore;

/// One measured kernel: mean latency and throughput.
struct Kernel {
    name: &'static str,
    ops_per_s: f64,
    mean_us: f64,
}

/// Runs `op` repeatedly until `min_time_ms` of wall clock accumulates
/// (at least 3 iterations), returning the throughput figures.
fn measure<F: FnMut(u64)>(name: &'static str, min_time_ms: u64, mut op: F) -> Kernel {
    op(0); // warm-up (first call may lazily build contexts)
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed().as_millis() < min_time_ms as u128 || iters < 3 {
        op(iters);
        iters += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    Kernel {
        name,
        ops_per_s: iters as f64 / elapsed,
        mean_us: elapsed * 1e6 / iters as f64,
    }
}

/// Measures kernels *interleaved* in one loop, so clock drift and
/// scheduler noise hit every side equally — the only trustworthy way to
/// take a ratio on a shared box. `ops_per_call` scales one call of each
/// closure to reported ops (e.g. a batch call covering 8 items).
fn measure_interleaved(
    names: &[&'static str],
    min_time_ms: u64,
    ops_per_call: &[f64],
    ops: &mut [&mut dyn FnMut(u64)],
) -> Vec<Kernel> {
    for op in ops.iter_mut() {
        op(0); // warm-up
    }
    let mut times = vec![0f64; ops.len()];
    let mut iters = 0u64;
    let start = Instant::now();
    while start.elapsed().as_millis() < ops.len() as u128 * min_time_ms as u128 || iters < 3 {
        for (op, t) in ops.iter_mut().zip(times.iter_mut()) {
            let t0 = Instant::now();
            op(iters);
            *t += t0.elapsed().as_secs_f64();
        }
        iters += 1;
    }
    names
        .iter()
        .zip(&times)
        .zip(ops_per_call)
        .map(|((&name, &t), &per_call)| Kernel {
            name,
            ops_per_s: iters as f64 * per_call / t,
            mean_us: t * 1e6 / (iters as f64 * per_call),
        })
        .collect()
}

/// [`measure_interleaved`] over two kernels.
fn measure_pair<F: FnMut(u64), G: FnMut(u64)>(
    names: (&'static str, &'static str),
    min_time_ms: u64,
    ops_per_call: (f64, f64),
    mut a: F,
    mut b: G,
) -> (Kernel, Kernel) {
    let mut pair = measure_interleaved(
        &[names.0, names.1],
        min_time_ms,
        &[ops_per_call.0, ops_per_call.1],
        &mut [&mut a, &mut b],
    )
    .into_iter();
    let a = pair.next().expect("two kernels");
    (a, pair.next().expect("two kernels"))
}

struct SizeReport {
    key_bits: usize,
    keygen_ms: f64,
    kernels: Vec<Kernel>,
    /// Derived ratios: (json field name, value).
    speedups: Vec<(&'static str, f64)>,
}

/// Fixture material shared by every kernel measurement at one key size.
struct Fixture {
    pk: PublicKey,
    sk: PrivateKey,
    sk_classic: PrivateKey,
    cts: Vec<Ciphertext>,
    randomizers: Vec<Randomizer>,
    small_scalar: BigUint,
    messages: Vec<BigUint>,
}

fn fixture(kp: &Keypair, variants: usize) -> Fixture {
    let pk = kp.public().clone();
    let mut rng = HashDrbg::from_seed_label(b"crypto-kernels", pk.bits() as u64);
    let messages: Vec<BigUint> = (0..variants)
        .map(|i| BigUint::from(1_000_003u64 * (i as u64 + 1)))
        .collect();
    let cts = messages.iter().map(|m| pk.encrypt(m, &mut rng)).collect();
    let randomizers = pk.precompute_randomizers(variants, &mut rng);
    Fixture {
        sk: kp.private().clone(),
        sk_classic: kp.private().without_crt(),
        pk,
        cts,
        randomizers,
        // A quantized market scalar (≈ 2^26): the mul_plain fast path.
        small_scalar: BigUint::from((1u64 << 26) + 12345),
        messages,
    }
}

fn bench_size(bits: usize, min_time_ms: u64) -> SizeReport {
    let mut rng = HashDrbg::from_seed_label(b"crypto-kernels-key", bits as u64);
    let t0 = Instant::now();
    let kp = Keypair::generate(bits, &mut rng);
    let keygen_ms = t0.elapsed().as_secs_f64() * 1e3;

    let fx = fixture(&kp, 8);
    let pick = |i: u64| (i % fx.cts.len() as u64) as usize;
    let mut kernels = Vec::new();

    {
        let mut rng = HashDrbg::new(b"bench-encrypt");
        let (pk, ms) = (&fx.pk, &fx.messages);
        kernels.push(measure("encrypt", min_time_ms, |i| {
            let _ = pk.encrypt(&ms[pick(i)], &mut rng);
        }));
    }
    kernels.push(measure("encrypt_pooled", min_time_ms, |i| {
        let _ = fx
            .pk
            .try_encrypt_with(&fx.messages[pick(i)], &fx.randomizers[pick(i)])
            .expect("in range");
    }));
    kernels.push(measure("add_ciphertexts", min_time_ms, |i| {
        let _ = fx
            .pk
            .add_ciphertexts(&fx.cts[pick(i)], &fx.cts[pick(i + 1)]);
    }));
    kernels.push(measure("add_plain", min_time_ms, |i| {
        let _ = fx.pk.add_plain(&fx.cts[pick(i)], &fx.messages[pick(i + 1)]);
    }));
    kernels.push(measure("mul_plain_small", min_time_ms, |i| {
        let _ = fx.pk.mul_plain(&fx.cts[pick(i)], &fx.small_scalar);
    }));
    {
        // Power-of-two scalar: the squaring-chain fast path at the same
        // magnitude as the quantized small_scalar row.
        let pow2 = BigUint::one() << 26;
        kernels.push(measure("mul_plain_pow2", min_time_ms, |i| {
            let _ = fx.pk.mul_plain(&fx.cts[pick(i)], &pow2);
        }));
    }
    {
        // Fused affine (mul_plain + add_plain in one Montgomery pass)
        // against the unfused chain it replaces, interleaved.
        let (pk, cts, ms, k) = (&fx.pk, &fx.cts, &fx.messages, &fx.small_scalar);
        let (seq, fused) = measure_pair(
            ("affine_seq", "affine_fused"),
            min_time_ms,
            (1.0, 1.0),
            |i| {
                let _ = pk.add_plain(&pk.mul_plain(&cts[pick(i)], k), &ms[pick(i + 1)]);
            },
            |i| {
                let _ = pk.affine(&cts[pick(i)], k, &ms[pick(i + 1)]);
            },
        );
        kernels.push(seq);
        kernels.push(fused);
    }
    {
        // Randomizer precompute, interleaved: the classic full-width
        // public-key lane vs the key owner's half-width CRT legs — the
        // pool's fast lane. Batches of 4 so each lane amortizes its
        // recoding/scratch exactly as the pool does.
        let (pk, sk) = (&fx.pk, &fx.sk);
        let mut rng_pk = HashDrbg::new(b"bench-precompute-classic");
        let mut rng_sk = HashDrbg::new(b"bench-precompute-owner");
        let (classic, owner) = measure_pair(
            ("precompute_classic", "precompute_owner_crt"),
            min_time_ms,
            (4.0, 4.0),
            |_| {
                let _ = pk.precompute_randomizers(4, &mut rng_pk);
            },
            |_| {
                let _ = sk.precompute_randomizers_crt(4, &mut rng_sk);
            },
        );
        kernels.push(classic);
        kernels.push(owner);
    }
    {
        // Raw full-width exponentiation mod n² vs the comb table for a
        // fixed base (same base, same full-width exponents), interleaved.
        let mont = Montgomery::new(fx.pk.n_squared().clone()).expect("n² odd");
        let mut rng = HashDrbg::new(b"bench-fixed-base");
        let base = BigUint::random_below(fx.pk.n_squared(), &mut rng);
        let exps: Vec<BigUint> = (0..8)
            .map(|_| BigUint::random_below(fx.pk.n(), &mut rng))
            .collect();
        let pick_e = |i: u64| (i % exps.len() as u64) as usize;
        let table = mont.fixed_base_table(&base, fx.pk.bits());
        let (full, fixed) = measure_pair(
            ("modpow_full", "fixed_base_pow"),
            min_time_ms,
            (1.0, 1.0),
            |i| {
                let _ = mont.modpow(&base, &exps[pick_e(i)]);
            },
            |i| {
                let _ = table.pow(&exps[pick_e(i)]);
            },
        );
        kernels.push(full);
        kernels.push(fixed);
    }
    {
        // Per-item decryption vs the batch API over the same
        // ciphertexts, interleaved call by call: the first baseline
        // measured these in separate windows and booked a 45% "batch
        // regression" at 2048 bits that was pure clock drift. Both
        // report per-ciphertext figures.
        let batch = fx.cts.clone();
        let per_call = batch.len() as f64;
        let (singles, batched) = measure_pair(
            ("decrypt_crt", "decrypt_batch"),
            min_time_ms,
            (per_call, per_call),
            |_| {
                for c in &batch {
                    let _ = fx.sk.decrypt(c);
                }
            },
            |_| {
                let _ = fx.sk.decrypt_batch(&batch);
            },
        );
        kernels.push(singles);
        kernels.push(batched);
    }
    kernels.push(measure("decrypt_classic", min_time_ms, |i| {
        let _ = fx.sk_classic.decrypt(&fx.cts[pick(i)]);
    }));

    let ops = |name: &str| {
        kernels
            .iter()
            .find(|k| k.name == name)
            .map_or(0.0, |k| k.ops_per_s)
    };
    let ratio = |fast: &str, slow: &str| {
        if ops(slow) > 0.0 {
            ops(fast) / ops(slow)
        } else {
            0.0
        }
    };
    let speedups = vec![
        (
            "decrypt_speedup_crt",
            ratio("decrypt_crt", "decrypt_classic"),
        ),
        (
            "precompute_speedup_owner_crt",
            ratio("precompute_owner_crt", "precompute_classic"),
        ),
        ("fixed_base_speedup", ratio("fixed_base_pow", "modpow_full")),
        ("affine_speedup", ratio("affine_fused", "affine_seq")),
        (
            "mul_plain_pow2_speedup",
            ratio("mul_plain_pow2", "mul_plain_small"),
        ),
    ];
    SizeReport {
        key_bits: bits,
        keygen_ms,
        kernels,
        speedups,
    }
}

/// Transfers per batch in the `ot_batch64` row: the comparator's width.
const OT_BATCH: usize = 64;

struct OtReport {
    group: String,
    group_bits: usize,
    kernels: Vec<Kernel>,
}

/// One OT group's rows, interleaved: a single transfer, a batch of
/// [`OT_BATCH`] and a whole 64-bit comparison. Every call checks its
/// result.
fn bench_ot(profile: OtProfile, min_time_ms: u64) -> OtReport {
    let group = profile.group();
    let mut rng = HashDrbg::from_seed_label(b"crypto-kernels-ot", group.p().bit_length() as u64);
    let mut rng_single = HashDrbg::new(b"bench-ot-single");
    let mut rng_batch = HashDrbg::new(b"bench-ot-batch");
    let mut rng_compare = HashDrbg::new(b"bench-compare64");
    let labels: Vec<([u8; 16], [u8; 16])> = (0..OT_BATCH)
        .map(|i| ([i as u8; 16], [!(i as u8); 16]))
        .collect();
    let messages: Vec<(&[u8], &[u8])> = labels.iter().map(|(a, b)| (&a[..], &b[..])).collect();
    let choices: Vec<bool> = (0..OT_BATCH).map(|_| rng.next_u32() & 1 == 1).collect();

    let mut single = |i: u64| {
        let choice = i % 2 == 1;
        let (m0, m1) = &labels[0];
        let got = run_local_ot(&group, m0, m1, choice, &mut rng_single).expect("ot");
        assert_eq!(got, if choice { m1 } else { m0 });
    };
    let mut batch = |_: u64| {
        let (sender, setup) = OtBatchSender::new(&group, &mut rng_batch);
        let (receiver, replies) =
            OtBatchReceiver::new(&group, &setup, &choices, &mut rng_batch).expect("setup");
        let cts = sender.encrypt(&replies, &messages).expect("encrypt");
        let got = receiver.decrypt(&cts).expect("decrypt");
        for ((m, &c), (m0, m1)) in got.iter().zip(&choices).zip(&labels) {
            assert_eq!(&m[..], if c { &m1[..] } else { &m0[..] });
        }
    };
    let mut compare = |_: u64| {
        let a = u128::from(rng_compare.next_u64());
        let b = u128::from(rng_compare.next_u64());
        let lt = secure_less_than_local(a, b, 64, &group, &mut rng_compare).expect("compare");
        assert_eq!(lt, a < b);
    };
    let kernels = measure_interleaved(
        &["ot_single", "ot_batch64", "compare64"],
        min_time_ms,
        &[1.0, 1.0, 1.0],
        &mut [&mut single, &mut batch, &mut compare],
    );
    OtReport {
        group: format!("{profile:?}").to_lowercase(),
        group_bits: group.p().bit_length(),
        kernels,
    }
}

fn kernel_fields(kernels: &[Kernel]) -> String {
    kernels
        .iter()
        .map(|k| {
            format!(
                "\"{}_ops_per_s\": {:.1}, \"{}_mean_us\": {:.1}, ",
                k.name, k.ops_per_s, k.name, k.mean_us
            )
        })
        .collect()
}

fn json(label: &str, reports: &[SizeReport], ot: &[OtReport]) -> String {
    let mut entries = Vec::new();
    for r in reports {
        let tail: Vec<String> = r
            .speedups
            .iter()
            .map(|(name, v)| format!("\"{name}\": {v:.2}"))
            .collect();
        entries.push(format!(
            "  {{\"key_bits\": {}, \"keygen_ms\": {:.1}, {}{}}}",
            r.key_bits,
            r.keygen_ms,
            kernel_fields(&r.kernels),
            tail.join(", ")
        ));
    }
    for r in ot {
        let fields = kernel_fields(&r.kernels);
        entries.push(format!(
            "  {{\"ot_group\": \"{}\", \"group_bits\": {}, {}}}",
            r.group,
            r.group_bits,
            fields.trim_end_matches(", ")
        ));
    }
    format!(
        "{{\"run\": \"{label}\", \"entries\": [\n{}\n]}}",
        entries.join(",\n")
    )
}

fn main() {
    let args = Args::from_env();
    let bits = args.get_usize_list("bits", &[512, 1024, 2048]);
    let min_time_ms = args.get_u64("min-time-ms", 300);
    let label = args.get_str("run-label", "dev");

    let reports: Vec<SizeReport> = bits.iter().map(|&b| bench_size(b, min_time_ms)).collect();
    let ot: Vec<OtReport> = [OtProfile::Test192, OtProfile::Modp1024, OtProfile::Modp2048]
        .into_iter()
        .map(|profile| bench_ot(profile, min_time_ms))
        .collect();

    println!("{}", json(&label, &reports, &ot));
    println!();
    println!("key_bits  kernel                  ops/s        mean");
    for r in &reports {
        for k in &r.kernels {
            println!(
                "{:>8}  {:<22} {:>10.1}  {:>8.1}µs",
                r.key_bits, k.name, k.ops_per_s, k.mean_us
            );
        }
        for (name, v) in &r.speedups {
            println!("{:>8}  {:<22} {:>10.2}x", r.key_bits, name, v);
        }
    }
    for r in &ot {
        for k in &r.kernels {
            println!(
                "{:>8}  {:<22} {:>10.1}  {:>8.1}µs",
                r.group, k.name, k.ops_per_s, k.mean_us
            );
        }
    }
}
