//! Layer kernel rows: the program's cryptographic primitives timed from
//! outside, at a workload's own key size, OT group and comparison width.
//! Every row also checks its primitive's result.

use std::time::{Duration, Instant};

use pem_bignum::BigUint;
use pem_circuit::garble::{eval_garbled, garble, select_input_labels};
use pem_circuit::{comparator_circuit, compare::secure_less_than_local, u128_to_bits};
use pem_core::PemConfig;
use pem_crypto::drbg::HashDrbg;
use pem_crypto::ot::run_local_ot;
use pem_crypto::paillier::Keypair;
use rand::RngCore;

/// Median time of each kernel.
#[derive(Debug, Clone, Copy)]
pub struct Kernels {
    /// Paillier key generation, ms.
    pub keygen_ms: f64,
    /// One Paillier encryption, µs.
    pub encrypt_us: f64,
    /// One Paillier decryption, µs.
    pub decrypt_us: f64,
    /// One base oblivious transfer, both sides in memory, µs.
    pub ot_base_us: f64,
    /// Garbling the comparator circuit, µs.
    pub garble_us: f64,
    /// Evaluating the garbled comparator, µs.
    pub gc_eval_us: f64,
    /// One whole secure comparison in memory, ms.
    pub compare_local_ms: f64,
}

/// Runs `f` at least `min_runs` times and until `budget` is spent, and
/// returns the median duration in seconds.
fn median_secs(
    min_runs: usize,
    budget: Duration,
    mut f: impl FnMut() -> Result<(), String>,
) -> Result<f64, String> {
    let mut times = Vec::new();
    let started = Instant::now();
    while times.len() < min_runs || (started.elapsed() < budget && times.len() < 10_000) {
        let t = Instant::now();
        f()?;
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(crate::stats::median(&mut times))
}

/// Times every kernel at `cfg`'s parameters.
///
/// # Errors
///
/// A primitive that returned a wrong result.
pub fn measure(cfg: &PemConfig, seed: u64) -> Result<Kernels, String> {
    let mut rng = HashDrbg::from_seed_label(b"perfbench-kernels", seed);
    let bits = cfg.compare_bits;
    let mask = if bits >= 128 {
        u128::MAX
    } else {
        (1u128 << bits) - 1
    };
    let value = |rng: &mut HashDrbg| {
        ((u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())) & mask
    };
    let short = Duration::from_millis(300);

    let mut keypair = None;
    let keygen = median_secs(3, short, || {
        keypair = Some(Keypair::generate(cfg.key_bits, &mut rng));
        Ok(())
    })?;
    let keypair = keypair.ok_or("no key generated")?;
    let message = BigUint::from(value(&mut rng) & u128::from(u64::MAX));
    let mut ciphertext = None;
    let encrypt = median_secs(5, short, || {
        ciphertext = Some(keypair.public().encrypt(&message, &mut rng));
        Ok(())
    })?;
    let ciphertext = ciphertext.ok_or("nothing encrypted")?;
    let decrypt = median_secs(5, short, || {
        if keypair.private().decrypt(&ciphertext) == message {
            Ok(())
        } else {
            Err("paillier decryption disagrees with the plaintext".into())
        }
    })?;

    let group = cfg.ot_profile.group();
    let (m0, m1) = ([0x5a; 16], [0xa5; 16]);
    let ot = median_secs(5, short, || {
        let choice = rng.next_u32() & 1 == 1;
        let got = run_local_ot(&group, &m0, &m1, choice, &mut rng).map_err(|e| e.to_string())?;
        if got == if choice { m1 } else { m0 } {
            Ok(())
        } else {
            Err("oblivious transfer returned the wrong message".into())
        }
    })?;

    let circuit = comparator_circuit(bits);
    let (a, b) = (value(&mut rng), value(&mut rng));
    let mut garbled = None;
    let garble_t = median_secs(5, short, || {
        garbled = Some(garble(&circuit, &mut rng));
        Ok(())
    })?;
    let (gc, secrets) = garbled.ok_or("nothing garbled")?;
    let labels = select_input_labels(&secrets, &u128_to_bits(a, bits), &u128_to_bits(b, bits));
    let eval = median_secs(5, short, || {
        match eval_garbled(&gc, &labels).map_err(|e| e.to_string())?[..] {
            [lt] if lt == (a < b) => Ok(()),
            _ => Err("garbled comparator disagrees with a < b".into()),
        }
    })?;

    let compare = median_secs(3, short, || {
        let (a, b) = (value(&mut rng), value(&mut rng));
        if secure_less_than_local(a, b, bits, &group, &mut rng).map_err(|e| e.to_string())?
            == (a < b)
        {
            Ok(())
        } else {
            Err("secure comparison disagrees with a < b".into())
        }
    })?;

    Ok(Kernels {
        keygen_ms: keygen * 1e3,
        encrypt_us: encrypt * 1e6,
        decrypt_us: decrypt * 1e6,
        ot_base_us: ot * 1e6,
        garble_us: garble_t * 1e6,
        gc_eval_us: eval * 1e6,
        compare_local_ms: compare * 1e3,
    })
}
