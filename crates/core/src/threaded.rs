//! Threaded deployment of the pricing ring: one OS thread per agent.
//!
//! The paper's prototype gives every agent its own Docker container
//! (§VII-A); the sequential driver in [`crate::protocol3`] is a faithful
//! *measurement* model, but this module demonstrates the same ring as a
//! genuinely concurrent system: each agent runs on its own thread, owns
//! its private data and key material, and talks to its neighbours only
//! through `pem-net`'s channel fabric. A test pins the result (and the
//! traffic pattern) to the sequential protocol.

use std::sync::Arc;

use pem_bignum::BigUint;
use pem_crypto::drbg::HashDrbg;
use pem_crypto::paillier::{Keypair, PublicKey};
use pem_net::runtime::run_parties;
use pem_net::wire::{WireReader, WireWriter};
use pem_net::{MeshTransport, NetStats, PartyId};

use crate::agents::AgentCtx;
use crate::codec::{get_ct, put_ct};
use crate::config::PemConfig;
use crate::error::PemError;
use crate::keys::KeyDirectory;

/// What one agent thread needs to play its role in the pricing ring.
#[derive(Debug, Clone)]
enum RolePlan {
    /// Position `i` in the seller ring; `next` is the link target.
    Seller {
        /// Quantized preference `k`.
        k_q: u64,
        /// Quantized pricing denominator term (signed).
        d_q: i64,
        /// Where to forward the running ciphertext pair.
        next: PartyId,
        /// `true` for the ring's first seller (originates the pair).
        starts: bool,
    },
    /// The chosen buyer `H_b`: decrypts, prices, broadcasts.
    Decryptor {
        /// `H_b`'s own key pair.
        keypair: Box<Keypair>,
        /// Denominator fallback when the aggregate is non-positive.
        parties: usize,
    },
    /// Everyone else just consumes the price broadcast.
    Listener,
}

/// Runs the Protocol 3 ring with one thread per agent.
///
/// `hb` is the designated buyer (passed in so tests can pin the
/// comparison against the sequential run).
///
/// Returns the broadcast price and the fabric's traffic statistics.
///
/// # Errors
///
/// [`PemError::Protocol`] for empty coalitions; any party's failure is
/// propagated.
pub fn pricing_ring_threaded(
    keys: &KeyDirectory,
    agents: &[AgentCtx],
    sellers: &[usize],
    buyers: &[usize],
    cfg: &PemConfig,
    hb: usize,
) -> Result<(f64, NetStats), PemError> {
    if sellers.is_empty() || buyers.is_empty() {
        return Err(PemError::Protocol(
            "pricing requires both coalitions to be non-empty",
        ));
    }
    if !buyers.contains(&hb) {
        return Err(PemError::Protocol("designated decryptor must be a buyer"));
    }
    let quantizer = cfg.quantizer();
    let n = agents.len();
    let pk: PublicKey = keys.public(hb).clone();
    let band = cfg.band;

    // Build each party's plan up front (main thread still "is" the
    // dealer; the threads then act autonomously).
    let mut plans: Vec<RolePlan> = vec![RolePlan::Listener; n];
    for (pos, &s) in sellers.iter().enumerate() {
        let next = if pos + 1 < sellers.len() {
            PartyId(sellers[pos + 1])
        } else {
            PartyId(hb)
        };
        plans[s] = RolePlan::Seller {
            k_q: quantizer.quantize_unsigned(agents[s].data.preference, "preference")?,
            d_q: quantizer.quantize(agents[s].data.pricing_denominator_term(), "denominator")?,
            next,
            starts: pos == 0,
        };
    }
    plans[hb] = RolePlan::Decryptor {
        keypair: Box::new(keys.keypair(hb).clone()),
        parties: n,
    };
    let plans = Arc::new(plans);
    let pk = Arc::new(pk);
    let seed = cfg.seed;
    let scale = cfg.scale;

    // The mesh transport in its threaded shape: per-party endpoints over
    // crossbeam links, carrying the market's configured latency model.
    let (endpoints, stats) = MeshTransport::with_latency(n, cfg.latency).into_endpoints();
    let results = run_parties(endpoints, move |ep| -> Result<f64, String> {
        let id = ep.id().0;
        let mut rng = HashDrbg::from_seed_label(b"threaded-pricing", seed ^ id as u64);
        match &plans[id] {
            RolePlan::Seller {
                k_q,
                d_q,
                next,
                starts,
            } => {
                let k_ct = pk
                    .try_encrypt(&BigUint::from(*k_q), &mut rng)
                    .map_err(|e| e.to_string())?;
                let d_ct = pk
                    .try_encrypt(&pk.encode_i128(*d_q as i128), &mut rng)
                    .map_err(|e| e.to_string())?;
                let (k_out, d_out) = if *starts {
                    (k_ct, d_ct)
                } else {
                    let env = ep.recv_expect("price/agg").map_err(|e| e.to_string())?;
                    let mut r = WireReader::new(&env.payload);
                    let k_in = get_ct(&mut r, &pk).map_err(|e| e.to_string())?;
                    let d_in = get_ct(&mut r, &pk).map_err(|e| e.to_string())?;
                    (
                        pk.add_ciphertexts(&k_in, &k_ct),
                        pk.add_ciphertexts(&d_in, &d_ct),
                    )
                };
                let mut w = WireWriter::new();
                put_ct(&mut w, &pk, &k_out).map_err(|e| e.to_string())?;
                put_ct(&mut w, &pk, &d_out).map_err(|e| e.to_string())?;
                ep.send(*next, "price/agg", w.finish())
                    .map_err(|e| e.to_string())?;
                // Sellers also hear the broadcast.
                let env = ep
                    .recv_expect("price/broadcast")
                    .map_err(|e| e.to_string())?;
                let mut r = WireReader::new(&env.payload);
                r.get_f64().map_err(|e| e.to_string())
            }
            RolePlan::Decryptor { keypair, parties } => {
                let env = ep.recv_expect("price/agg").map_err(|e| e.to_string())?;
                let mut r = WireReader::new(&env.payload);
                let k_ct = get_ct(&mut r, &pk).map_err(|e| e.to_string())?;
                let d_ct = get_ct(&mut r, &pk).map_err(|e| e.to_string())?;
                let sk = keypair.private();
                let k_sum = sk
                    .decrypt(&k_ct)
                    .to_u128()
                    .ok_or("k aggregate exceeded 128 bits")? as f64
                    / scale as f64;
                let d_sum = sk.decrypt_i128(&d_ct) as f64 / scale as f64;
                let p_hat = if d_sum <= 0.0 {
                    f64::INFINITY
                } else {
                    (band.grid_retail * k_sum / d_sum).sqrt()
                };
                let price = band.clamp(p_hat);
                let mut w = WireWriter::new();
                w.put_f64(price);
                let bytes = w.finish();
                for p in 0..*parties {
                    if p != id {
                        ep.send(PartyId(p), "price/broadcast", bytes.clone())
                            .map_err(|e| e.to_string())?;
                    }
                }
                Ok(price)
            }
            RolePlan::Listener => {
                let env = ep
                    .recv_expect("price/broadcast")
                    .map_err(|e| e.to_string())?;
                let mut r = WireReader::new(&env.payload);
                r.get_f64().map_err(|e| e.to_string())
            }
        }
    });

    let mut price = None;
    for r in results {
        let p = r.map_err(|e| PemError::Config(format!("party thread failed: {e}")))?;
        match price {
            None => price = Some(p),
            Some(prev) => {
                if (prev - p).abs() > 1e-12 {
                    return Err(PemError::Protocol("parties disagree on the price"));
                }
            }
        }
    }
    let stats = stats.lock().clone();
    Ok((price.expect("at least one party"), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol3;
    use crate::quantize::Quantizer;
    use pem_market::{AgentWindow, Role};
    use pem_net::SimNetwork;
    use rand::Rng;

    fn setup() -> (
        KeyDirectory,
        Vec<AgentCtx>,
        Vec<usize>,
        Vec<usize>,
        PemConfig,
    ) {
        let cfg = PemConfig::fast_test();
        let q = Quantizer::new(cfg.scale);
        let data = vec![
            AgentWindow::new(0, 4.0, 1.0, 0.0, 0.9, 28.0),
            AgentWindow::new(1, 6.0, 0.5, 0.0, 0.85, 35.0),
            AgentWindow::new(2, 2.0, 0.5, 0.0, 0.9, 22.0),
            AgentWindow::new(3, 0.0, 5.0, 0.0, 0.9, 20.0),
            AgentWindow::new(4, 0.0, 9.0, 0.0, 0.9, 22.0),
        ];
        let keys = KeyDirectory::generate(data.len(), cfg.key_bits, cfg.seed).expect("keys");
        let mut rng = HashDrbg::from_seed_label(b"threaded-test", 1);
        let mut agents = Vec::new();
        let mut sellers = Vec::new();
        let mut buyers = Vec::new();
        for (i, d) in data.into_iter().enumerate() {
            let ctx = AgentCtx::prepare(i, d, &q, rng.gen::<u64>() >> 24).expect("prepare");
            match ctx.role {
                Role::Seller => sellers.push(i),
                Role::Buyer => buyers.push(i),
                Role::OffMarket => {}
            }
            agents.push(ctx);
        }
        (keys, agents, sellers, buyers, cfg)
    }

    #[test]
    fn threaded_price_matches_sequential() {
        let (keys, agents, sellers, buyers, cfg) = setup();
        let hb = buyers[0];
        let (threaded_price, stats) =
            pricing_ring_threaded(&keys, &agents, &sellers, &buyers, &cfg, hb).expect("threaded");

        // Sequential reference (the driver picks hb itself; prices agree
        // regardless because the aggregates are decryptor-independent).
        let mut net = SimNetwork::new(agents.len());
        let mut rng = HashDrbg::from_seed_label(b"threaded-ref", 9);
        let seq = protocol3::run(
            &mut net, &keys, &agents, &sellers, &buyers, &cfg, &mut None, &mut rng,
        )
        .expect("sequential");
        assert!(
            (threaded_price - seq.price).abs() < 1e-9,
            "threaded {threaded_price} vs sequential {}",
            seq.price
        );

        // Traffic pattern: |sellers| ring messages + (n−1) broadcasts,
        // and the ring carries the sequential run's fixed-width bytes.
        assert_eq!(stats.per_label["price/agg"].messages, sellers.len() as u64);
        assert_eq!(
            stats.per_label["price/agg"].bytes,
            net.stats().per_label["price/agg"].bytes
        );
        assert_eq!(
            stats.per_label["price/broadcast"].messages,
            (agents.len() - 1) as u64
        );
    }

    #[test]
    fn rejects_non_buyer_decryptor() {
        let (keys, agents, sellers, buyers, cfg) = setup();
        let err = pricing_ring_threaded(&keys, &agents, &sellers, &buyers, &cfg, sellers[0]);
        assert!(matches!(err, Err(PemError::Protocol(_))));
    }

    #[test]
    fn repeated_runs_are_consistent() {
        let (keys, agents, sellers, buyers, cfg) = setup();
        let hb = buyers[1];
        let (p1, _) =
            pricing_ring_threaded(&keys, &agents, &sellers, &buyers, &cfg, hb).expect("run 1");
        let (p2, _) =
            pricing_ring_threaded(&keys, &agents, &sellers, &buyers, &cfg, hb).expect("run 2");
        assert_eq!(p1.to_bits(), p2.to_bits(), "deterministic across runs");
    }
}
