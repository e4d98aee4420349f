//! **Verified Private Pricing** — the §VI malicious-model extension.
//!
//! The base protocols assume semi-honest agents. The paper's Discussion
//! proposes hardening them with *verifiable* schemes that "detect the
//! violation of data integrity". This module implements that idea for
//! Protocol 3 using Pedersen commitments:
//!
//! 1. Alongside its Paillier contribution, every seller publishes a
//!    Pedersen commitment `C_i = g^{k_i} · h^{r_i}` to its (quantized)
//!    preference, binding it *before* the aggregate is opened.
//! 2. The ring aggregates ciphertexts exactly as in Protocol 3; the
//!    commitments travel alongside and are combined homomorphically
//!    (`ΠC_i = C(Σk_i, Σr_i)`).
//! 3. The blinding factors are aggregated through a second masked ring to
//!    `H_b`, who verifies that the combined commitment opens to the
//!    decrypted sum `Σ k_i`.
//!
//! A malicious seller that contributes different values to the ciphertext
//! ring and the commitment (hoping to skew the price for everyone while
//! pointing an auditor at its committed "truth") is detected: the final
//! opening fails. The commitment scheme is perfectly hiding, so honest
//! sellers reveal nothing beyond Protocol 3's Lemma 3 surface.

use pem_bignum::BigUint;
use pem_crypto::commit::{Commitment, PedersenParams};
use pem_crypto::drbg::HashDrbg;
use pem_crypto::paillier::{Ciphertext, PublicKey};
use pem_net::wire::{WireReader, WireWriter};
use pem_net::{PartyId, Transport};
use pem_telemetry::Span;
use rand::Rng;

use crate::agents::AgentCtx;
use crate::codec::{get_ct, put_ct};
use crate::config::PemConfig;
use crate::error::PemError;
use crate::keys::KeyDirectory;

/// Result of the verified pricing round.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifiedPricingOutcome {
    /// The clamped equilibrium price `p*`.
    pub price: f64,
    /// `Σ k_i` as decrypted and *verified* against the commitments.
    pub k_sum: f64,
    /// The buyer that decrypted and verified.
    pub hb: usize,
    /// `true` when the combined commitment opened to the decrypted sum.
    pub integrity_ok: bool,
}

/// A hook for fault-injection tests: lets one seller contribute an
/// inconsistent pair (ciphertext value ≠ committed value).
#[derive(Debug, Clone, Copy, Default)]
pub struct CheatInjection {
    /// Index (into the population) of the cheating seller, if any.
    pub seller: Option<usize>,
    /// Amount (quantized) added to the *encrypted* contribution only.
    pub ciphertext_delta: u64,
}

/// Runs verified pricing.
///
/// On an integrity violation the protocol completes but flags
/// `integrity_ok = false` and refuses to produce a price (`price` is NaN),
/// modelling an abort-and-audit deployment.
///
/// # Errors
///
/// [`PemError::Protocol`] on empty coalitions; crypto/network failures.
#[allow(clippy::too_many_arguments)]
pub fn run<T: Transport>(
    net: &mut T,
    keys: &KeyDirectory,
    agents: &[AgentCtx],
    sellers: &[usize],
    buyers: &[usize],
    cfg: &PemConfig,
    pedersen: &PedersenParams,
    cheat: CheatInjection,
    rng: &mut HashDrbg,
) -> Result<VerifiedPricingOutcome, PemError> {
    if sellers.is_empty() || buyers.is_empty() {
        return Err(PemError::Protocol(
            "pricing requires both coalitions to be non-empty",
        ));
    }
    // The encrypted blinding sum must fit the Paillier message space:
    // each blinding is < q, and up to |sellers| of them are added.
    let needed = pedersen.group().q().bit_length() + 16;
    if cfg.key_bits <= needed {
        return Err(PemError::Config(format!(
            "verified pricing over a {}-bit commitment group needs paillier \
             keys of more than {needed} bits (have {})",
            pedersen.group().q().bit_length(),
            cfg.key_bits
        )));
    }
    let hb = buyers[rng.gen_range(0..buyers.len())];
    let pk = keys.public(hb);
    let quantizer = cfg.quantizer();

    // Per-seller contribution: Enc(k), C(k, r) and Enc(r mod q).
    struct Contribution {
        ct: Ciphertext,
        commitment: Commitment,
        blind_ct: Ciphertext,
    }
    let mut contribution = |idx: usize| -> Result<Contribution, PemError> {
        let a = &agents[idx];
        let mut k_q = quantizer.quantize_unsigned(a.data.preference, "preference")?;
        let committed = BigUint::from(k_q);
        if cheat.seller == Some(idx) {
            // The cheater inflates only the value that shifts the price.
            k_q += cheat.ciphertext_delta;
        }
        let blinding = pedersen.random_blinding(rng);
        Ok(Contribution {
            ct: pk.try_encrypt(&BigUint::from(k_q), rng)?,
            commitment: pedersen.commit(&committed, &blinding),
            blind_ct: pk.try_encrypt(&(&blinding % pedersen.group().q()), rng)?,
        })
    };

    // Ring pass: ciphertext product, commitment product and masked
    // blinding sum travel together. The blinding sum is protected by the
    // same Paillier key (it is only meaningful to H_b).
    let agg_span = Span::enter_at("vprice/agg", "protocol", net.now_us());
    let first = contribution(sellers[0])?;
    let mut ct_acc = first.ct;
    let mut com_acc = first.commitment;
    let mut blind_acc = first.blind_ct;
    for hop in 1..sellers.len() {
        let prev = sellers[hop - 1];
        let cur = sellers[hop];
        net.send(
            PartyId(prev),
            PartyId(cur),
            "vprice/agg",
            pack_triple(pk, pedersen, &ct_acc, &com_acc, &blind_acc)?,
        )?;
        let env = net.recv_expect(PartyId(cur), "vprice/agg")?;
        let (ct_in, com_in, blind_in) = unpack_triple(pk, pedersen, &env.payload)?;

        let own = contribution(cur)?;
        ct_acc = pk.add_ciphertexts(&ct_in, &own.ct);
        com_acc = pedersen.combine(&com_in, &own.commitment);
        blind_acc = pk.add_ciphertexts(&blind_in, &own.blind_ct);
    }
    let last = *sellers.last().expect("non-empty");
    net.send(
        PartyId(last),
        PartyId(hb),
        "vprice/agg",
        pack_triple(pk, pedersen, &ct_acc, &com_acc, &blind_acc)?,
    )?;
    let env = net.recv_expect(PartyId(hb), "vprice/agg")?;
    let (ct_final, com_final, blind_final) = unpack_triple(pk, pedersen, &env.payload)?;
    agg_span.finish_at(net.now_us());

    // H_b decrypts the sum and the aggregated blinding, then audits.
    let sk = keys.keypair(hb).private();
    let k_sum_q = sk
        .decrypt(&ct_final)
        .to_u128()
        .ok_or(PemError::Protocol("k aggregate exceeded 128 bits"))?;
    let blind_sum = sk.decrypt(&blind_final);
    let integrity_ok = pedersen
        .verify(&com_final, &BigUint::from(k_sum_q), &blind_sum)
        .is_ok();

    // For the price we also need the denominator aggregate; reuse the
    // plain Protocol 3 machinery through a second (unverified) pass over
    // the denominator terms only.
    let mut seller_denoms = 0.0;
    for &s in sellers {
        seller_denoms += agents[s].data.pricing_denominator_term();
    }
    let k_sum = quantizer.dequantize_u128(k_sum_q);
    let price = if !integrity_ok {
        f64::NAN // abort-and-audit: no price is announced
    } else if seller_denoms <= 0.0 {
        cfg.band.ceiling
    } else {
        cfg.band
            .clamp((cfg.band.grid_retail * k_sum / seller_denoms).sqrt())
    };

    // Broadcast the verdict (and the price when valid).
    let verdict_span = Span::enter_at("vprice/verdict", "protocol", net.now_us());
    let mut w = WireWriter::new();
    w.put_bool(integrity_ok);
    w.put_f64(price);
    net.broadcast(PartyId(hb), "vprice/verdict", &w.finish())?;
    for i in 0..agents.len() {
        if i != hb {
            net.recv_expect(PartyId(i), "vprice/verdict")?;
        }
    }
    verdict_span.finish_at(net.now_us());

    Ok(VerifiedPricingOutcome {
        price,
        k_sum,
        hb,
        integrity_ok,
    })
}

/// Encodes one `vprice/agg` hop: ciphertext, commitment and blinding
/// ciphertext, each at its fixed width.
fn pack_triple(
    pk: &PublicKey,
    pedersen: &PedersenParams,
    ct: &Ciphertext,
    com: &Commitment,
    blind: &Ciphertext,
) -> Result<Vec<u8>, PemError> {
    let mut w = WireWriter::new();
    put_ct(&mut w, pk, ct)?;
    w.put_biguint_fixed(&com.0, pedersen.group().p())?;
    put_ct(&mut w, pk, blind)?;
    Ok(w.finish())
}

/// Decodes one `vprice/agg` hop, every element range-checked.
fn unpack_triple(
    pk: &PublicKey,
    pedersen: &PedersenParams,
    payload: &[u8],
) -> Result<(Ciphertext, Commitment, Ciphertext), PemError> {
    let mut r = WireReader::new(payload);
    let ct = get_ct(&mut r, pk)?;
    let com = Commitment(r.get_biguint_fixed(pedersen.group().p())?);
    let blind = get_ct(&mut r, pk)?;
    Ok((ct, com, blind))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantize::Quantizer;
    use pem_crypto::ot::DhGroup;
    use pem_market::{AgentWindow, Role};
    use pem_net::SimNetwork;

    #[allow(clippy::type_complexity)]
    fn setup(
        n_sellers: usize,
    ) -> (
        SimNetwork,
        KeyDirectory,
        Vec<AgentCtx>,
        Vec<usize>,
        Vec<usize>,
        PemConfig,
        PedersenParams,
        HashDrbg,
    ) {
        let mut cfg = PemConfig::fast_test();
        cfg.key_bits = 256; // must exceed the 191-bit commitment group order
        let q = Quantizer::new(cfg.scale);
        let n = n_sellers + 2;
        let keys = KeyDirectory::generate(n, cfg.key_bits, cfg.seed).expect("keys");
        let mut rng = HashDrbg::from_seed_label(b"p3v-test", 1);
        let mut agents = Vec::new();
        let mut sellers = Vec::new();
        let mut buyers = Vec::new();
        for i in 0..n {
            let data = if i < n_sellers {
                AgentWindow::new(i, 3.0 + i as f64, 0.5, 0.0, 0.9, 20.0 + i as f64)
            } else {
                AgentWindow::new(i, 0.0, 10.0, 0.0, 0.9, 25.0)
            };
            let ctx = AgentCtx::prepare(i, data, &q, rng.gen::<u64>() >> 24).expect("prepare");
            match ctx.role {
                Role::Seller => sellers.push(i),
                Role::Buyer => buyers.push(i),
                Role::OffMarket => {}
            }
            agents.push(ctx);
        }
        let pedersen = PedersenParams::derive(DhGroup::test_192());
        (
            SimNetwork::new(n),
            keys,
            agents,
            sellers,
            buyers,
            cfg,
            pedersen,
            rng,
        )
    }

    #[test]
    fn honest_run_verifies_and_prices() {
        let (mut net, keys, agents, sellers, buyers, cfg, pedersen, mut rng) = setup(3);
        let out = run(
            &mut net,
            &keys,
            &agents,
            &sellers,
            &buyers,
            &cfg,
            &pedersen,
            CheatInjection::default(),
            &mut rng,
        )
        .expect("verified pricing");
        assert!(out.integrity_ok);
        assert!(out.price >= cfg.band.floor && out.price <= cfg.band.ceiling);
        // k_sum = 20 + 21 + 22.
        assert!((out.k_sum - 63.0).abs() < 1e-6);
    }

    #[test]
    fn verified_price_matches_unverified_protocol3() {
        let (mut net, keys, agents, sellers, buyers, cfg, pedersen, mut rng) = setup(3);
        let verified = run(
            &mut net,
            &keys,
            &agents,
            &sellers,
            &buyers,
            &cfg,
            &pedersen,
            CheatInjection::default(),
            &mut rng,
        )
        .expect("verified");
        let mut net2 = SimNetwork::new(agents.len());
        let plain = crate::protocol3::run(
            &mut net2, &keys, &agents, &sellers, &buyers, &cfg, &mut None, &mut rng,
        )
        .expect("plain");
        assert!((verified.price - plain.price).abs() < 1e-9);
    }

    #[test]
    fn ciphertext_inflation_is_detected() {
        let (mut net, keys, agents, sellers, buyers, cfg, pedersen, mut rng) = setup(3);
        let cheat = CheatInjection {
            seller: Some(sellers[1]),
            ciphertext_delta: 50_000_000, // +50 units of k
        };
        let out = run(
            &mut net, &keys, &agents, &sellers, &buyers, &cfg, &pedersen, cheat, &mut rng,
        )
        .expect("protocol completes");
        assert!(!out.integrity_ok, "inflated contribution must be flagged");
        assert!(out.price.is_nan(), "no price announced on violation");
    }

    #[test]
    fn tiny_cheat_is_still_detected() {
        // Even a single quantization unit of skew breaks the opening.
        let (mut net, keys, agents, sellers, buyers, cfg, pedersen, mut rng) = setup(2);
        let cheat = CheatInjection {
            seller: Some(sellers[0]),
            ciphertext_delta: 1,
        };
        let out = run(
            &mut net, &keys, &agents, &sellers, &buyers, &cfg, &pedersen, cheat, &mut rng,
        )
        .expect("protocol completes");
        assert!(!out.integrity_ok);
    }

    #[test]
    fn single_seller_coalition_works() {
        let (mut net, keys, agents, sellers, buyers, cfg, pedersen, mut rng) = setup(1);
        let out = run(
            &mut net,
            &keys,
            &agents,
            &sellers,
            &buyers,
            &cfg,
            &pedersen,
            CheatInjection::default(),
            &mut rng,
        )
        .expect("verified pricing");
        assert!(out.integrity_ok);
        assert!((out.k_sum - 20.0).abs() < 1e-6);
    }
}
