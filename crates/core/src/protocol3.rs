//! **Protocol 3 — Private Pricing.**
//!
//! In a general market, a randomly chosen buyer `H_b` learns only the two
//! seller-coalition aggregates that Eq. 13 needs (Lemma 3):
//! `Σ k_i` and `Σ (g_i + 1 + ε_i·b_i − b_i)`. Both are collected by one
//! ring pass over the sellers, carrying two Paillier ciphertexts under
//! `H_b`'s key. `H_b` then computes
//! `p̂ = sqrt( ps_g · Σk / Σ(…) )`, clamps it into `[p_l, p_h]` (Eq. 14)
//! and broadcasts `p*`.

use pem_crypto::drbg::HashDrbg;
use pem_crypto::paillier::Ciphertext;
use pem_fabric::{Outbound, ProtocolStateMachine, Transition};
use pem_net::wire::{WireReader, WireWriter};
use pem_net::{Envelope, PartyId, Transport};
use pem_telemetry::Span;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::agents::AgentCtx;
use crate::codec::{get_ct, put_ct};
use crate::config::PemConfig;
use crate::error::PemError;
use crate::keys::KeyDirectory;
use crate::randpool::{self, RandomizerPool};

/// Result of Private Pricing.
#[derive(Debug, Clone, PartialEq)]
pub struct PricingOutcome {
    /// The clamped equilibrium price `p*` (¢/kWh).
    pub price: f64,
    /// The raw (unclamped) equilibrium price `p̂`.
    pub p_hat: f64,
    /// The randomly selected buyer that performed the computation.
    pub hb: usize,
    /// `Σ k_i` revealed to `H_b` (the Lemma 3 audit surface).
    pub k_sum: f64,
    /// `Σ (g_i + 1 + ε_i·b_i − b_i)` revealed to `H_b`.
    pub denominator_sum: f64,
}

/// How the seller coalition aggregates its ciphertexts toward `H_b`.
///
/// The paper's Protocol 3 is a **ring** (each seller multiplies into a
/// travelling ciphertext): `|Φ_s|` sequential hops, one ciphertext pair on
/// the wire per hop. The **star** alternative has every seller send its
/// pair directly to `H_b`, who multiplies locally: the same byte volume
/// but a sequential depth of 1 — at the cost of an `|Φ_s|`-message
/// fan-in concentrated on one party. The **tree** sits between: sellers
/// aggregate up an f-ary tree, so the sequential depth is
/// `O(log_f |Φ_s|)` while no party ever receives more than `f` messages
/// per hop. All three move the same byte volume; the trade-off is what
/// the `ablation_topology` bench quantifies and
/// `sched_scaling --topologies` sweeps end to end. Selected per market
/// via [`PemConfig::topology`](crate::PemConfig).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Topology {
    /// Sequential ring through the seller coalition (the paper's flow).
    #[default]
    Ring,
    /// Direct fan-in to the decryptor.
    Star,
    /// f-ary aggregation tree: depth `O(log_f n)`, at most `fanin`
    /// messages received per node per hop (values below 2 are treated
    /// as 2 — a 1-ary "tree" would degenerate into the ring).
    Tree {
        /// Maximum children aggregated per node.
        fanin: usize,
    },
}

impl Topology {
    /// A binary aggregation tree (the default tree shape).
    pub fn tree() -> Topology {
        Topology::Tree { fanin: 2 }
    }
}

impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Through `pad` so callers' width/alignment specifiers apply.
        match self {
            Topology::Ring => f.pad("ring"),
            Topology::Star => f.pad("star"),
            Topology::Tree { fanin } => f.pad(&format!("tree:{fanin}")),
        }
    }
}

impl std::str::FromStr for Topology {
    type Err = String;

    fn from_str(s: &str) -> Result<Topology, String> {
        let s = s.trim().to_ascii_lowercase();
        match s.as_str() {
            "ring" => Ok(Topology::Ring),
            "star" => Ok(Topology::Star),
            "tree" => Ok(Topology::tree()),
            other => {
                if let Some(fanin) = other.strip_prefix("tree:") {
                    let fanin: usize = fanin
                        .parse()
                        .map_err(|_| format!("bad tree fan-in '{fanin}'"))?;
                    if fanin < 2 {
                        return Err("tree fan-in must be at least 2".into());
                    }
                    Ok(Topology::Tree { fanin })
                } else {
                    Err(format!(
                        "unknown topology '{other}' (expected ring|star|tree[:fanin])"
                    ))
                }
            }
        }
    }
}

/// Runs Protocol 3 with the paper's ring topology.
///
/// # Errors
///
/// [`PemError::Protocol`] if either coalition is empty; otherwise
/// crypto/network failures.
#[allow(clippy::too_many_arguments)]
pub fn run<T: Transport>(
    net: &mut T,
    keys: &KeyDirectory,
    agents: &[AgentCtx],
    sellers: &[usize],
    buyers: &[usize],
    cfg: &PemConfig,
    pool: &mut Option<RandomizerPool>,
    rng: &mut HashDrbg,
) -> Result<PricingOutcome, PemError> {
    run_with_topology(
        net,
        keys,
        agents,
        sellers,
        buyers,
        cfg,
        Topology::Ring,
        pool,
        rng,
    )
}

/// Runs Protocol 3 with an explicit aggregation topology — the thin
/// blocking adapter over [`PricingMachine`].
///
/// # Errors
///
/// As [`run`].
#[allow(clippy::too_many_arguments)]
pub fn run_with_topology<T: Transport>(
    net: &mut T,
    keys: &KeyDirectory,
    agents: &[AgentCtx],
    sellers: &[usize],
    buyers: &[usize],
    cfg: &PemConfig,
    topology: Topology,
    pool: &mut Option<RandomizerPool>,
    rng: &mut HashDrbg,
) -> Result<PricingOutcome, PemError> {
    let start_vts = net.now_us();
    let mut machine = PricingMachine::new(
        keys, agents, sellers, buyers, cfg, topology, pool, rng, start_vts,
    )?;
    pem_fabric::drive(net, &mut machine)
}

/// Where the pricing protocol currently stands.
enum PricingState {
    /// Ring pass: waiting for the travelling pair at `sellers[hop]`
    /// (the accumulator itself is in flight, inside the message).
    Ring {
        hop: usize,
    },
    /// Star fan-in: `H_b` folding pairs FIFO; `received` counted so far.
    Star {
        received: usize,
        k_acc: Option<Ciphertext>,
        d_acc: Option<Ciphertext>,
    },
    /// Tree fold: node at position `pos` waiting for `remaining` child
    /// pairs before forwarding to its parent.
    Tree {
        pos: usize,
        remaining: usize,
        k_acc: Ciphertext,
        d_acc: Ciphertext,
    },
    /// The aggregated pair is on its way to `H_b`.
    AwaitFinal,
    /// Price broadcast out; parties `> next` (skipping `H_b`) still to
    /// confirm consumption.
    Consume {
        next: usize,
    },
    Done,
}

/// Protocol 3 — Private Pricing — as a poll-able state machine covering
/// all three aggregation topologies plus the price broadcast.
///
/// All seller-term encryptions are performed at construction, in exactly
/// the order the blocking driver drew them (ring/star: seller order;
/// tree: descending position), so RNG and randomizer-pool streams are
/// bit-identical between [`run_with_topology`] and an executor-driven
/// run.
pub struct PricingMachine<'a> {
    keys: &'a KeyDirectory,
    cfg: &'a PemConfig,
    /// Seller party ids, coalition order.
    sellers: Vec<usize>,
    /// Population size (for the broadcast consume loop).
    n: usize,
    hb: usize,
    fanin: usize,
    /// Encrypted `(k, d)` terms, indexed by seller *position*.
    terms: Vec<Option<(Ciphertext, Ciphertext)>>,
    state: PricingState,
    /// Open `price/agg` span (finished when the pair reaches `H_b`).
    agg_span: Option<Span>,
    /// Open `price/broadcast` span (finished on the last consumption).
    bc_span: Option<Span>,
    /// Filled by the final-aggregation step, reported at `Done`.
    outcome: Option<PricingOutcome>,
}

impl<'a> PricingMachine<'a> {
    /// Builds the machine: selects `H_b`, encrypts every seller's terms
    /// under `H_b`'s key (in the blocking driver's order) and opens the
    /// `price/agg` span at `start_vts` (the fabric's current virtual
    /// time).
    ///
    /// # Errors
    ///
    /// [`PemError::Protocol`] if either coalition is empty; otherwise
    /// quantization/encryption failures.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        keys: &'a KeyDirectory,
        agents: &[AgentCtx],
        sellers: &[usize],
        buyers: &[usize],
        cfg: &'a PemConfig,
        topology: Topology,
        pool: &mut Option<RandomizerPool>,
        rng: &mut HashDrbg,
        start_vts: u64,
    ) -> Result<PricingMachine<'a>, PemError> {
        if sellers.is_empty() || buyers.is_empty() {
            return Err(PemError::Protocol(
                "pricing requires both coalitions to be non-empty",
            ));
        }
        let hb = buyers[rng.gen_range(0..buyers.len())];
        let pk = keys.public(hb);
        let quantizer = cfg.quantizer();
        let m = sellers.len();

        // Each seller's two pricing terms, encrypted under H_b's key. The
        // denominator term is signed in principle (deep battery
        // charging), so it uses the balanced encoding.
        let mut seller_terms = |idx: usize| -> Result<(Ciphertext, Ciphertext), PemError> {
            let a = &agents[idx];
            let k_q = quantizer.quantize_unsigned(a.data.preference, "preference")?;
            let d_q =
                quantizer.quantize(a.data.pricing_denominator_term(), "pricing denominator")?;
            let k_ct = randpool::encrypt_under(pk, hb, &pem_bignum::BigUint::from(k_q), pool, rng)?;
            let d_ct = randpool::encrypt_under(pk, hb, &pk.encode_i128(d_q as i128), pool, rng)?;
            Ok((k_ct, d_ct))
        };

        let mut terms: Vec<Option<(Ciphertext, Ciphertext)>> = (0..m).map(|_| None).collect();
        let (state, fanin) = match topology {
            Topology::Ring => {
                for pos in 0..m {
                    terms[pos] = Some(seller_terms(sellers[pos])?);
                }
                (PricingState::Ring { hop: 1 }, 2)
            }
            Topology::Star => {
                for pos in 0..m {
                    terms[pos] = Some(seller_terms(sellers[pos])?);
                }
                (
                    PricingState::Star {
                        received: 0,
                        k_acc: None,
                        d_acc: None,
                    },
                    2,
                )
            }
            Topology::Tree { fanin } => {
                let f = fanin.max(2);
                // The blocking driver walks positions in descending
                // order, computing each node's terms as it visits it.
                for pos in (0..m).rev() {
                    terms[pos] = Some(seller_terms(sellers[pos])?);
                }
                // The first (highest) position with children; every
                // position below it also has children.
                let state = if m == 1 {
                    PricingState::AwaitFinal
                } else {
                    let pos = (m - 2) / f;
                    let (k_acc, d_acc) = terms[pos].take().expect("just computed");
                    PricingState::Tree {
                        pos,
                        remaining: tree_children(pos, f, m),
                        k_acc,
                        d_acc,
                    }
                };
                (state, f)
            }
        };

        Ok(PricingMachine {
            keys,
            cfg,
            sellers: sellers.to_vec(),
            n: agents.len(),
            hb,
            fanin,
            terms,
            state,
            agg_span: Some(Span::enter_at("price/agg", "protocol", start_vts)),
            bc_span: None,
            outcome: None,
        })
    }

    fn pair_out(
        &self,
        from: usize,
        to: usize,
        k: &Ciphertext,
        d: &Ciphertext,
    ) -> Result<Outbound, PemError> {
        let pk = self.keys.public(self.hb);
        let mut w = WireWriter::new();
        put_ct(&mut w, pk, k)?;
        put_ct(&mut w, pk, d)?;
        Ok(Outbound {
            from: PartyId(from),
            to: PartyId(to),
            label: "price/agg",
            payload: w.finish(),
        })
    }

    /// The parent of seller position `pos` in the f-ary tree (`H_b` for
    /// the root).
    fn tree_parent(&self, pos: usize) -> usize {
        if pos == 0 {
            self.hb
        } else {
            self.sellers[(pos - 1) / self.fanin]
        }
    }

    /// `H_b` holds the final aggregate: decrypt, price, and fan the
    /// broadcast out. `vts` is the arrival time of the closing message
    /// (the end of the aggregation phase on the virtual clock).
    fn finish_aggregation(
        &mut self,
        k_ct: Ciphertext,
        d_ct: Ciphertext,
        vts: u64,
    ) -> Result<Transition<PricingOutcome>, PemError> {
        if let Some(span) = self.agg_span.take() {
            span.finish_at(vts);
        }

        // … who decrypts the two aggregates (and nothing else — Lemma 3).
        let quantizer = self.cfg.quantizer();
        let sk = self.keys.keypair(self.hb).private();
        let k_sum_q = sk
            .decrypt(&k_ct)
            .to_u128()
            .ok_or(PemError::Protocol("k aggregate exceeded 128 bits"))?;
        let d_sum_q = sk.decrypt_i128(&d_ct);
        let k_sum = quantizer.dequantize_u128(k_sum_q);
        let denominator_sum =
            quantizer.dequantize(i64::try_from(d_sum_q).map_err(|_| {
                PemError::Protocol("pricing denominator aggregate exceeded 64 bits")
            })?);

        // Eq. 13 with the Eq. 14 clamp; a non-positive denominator means
        // supply is so battery-starved the equilibrium diverges →
        // ceiling.
        let p_hat = if denominator_sum <= 0.0 {
            f64::INFINITY
        } else {
            (self.cfg.band.grid_retail * k_sum / denominator_sum).sqrt()
        };
        let price = self.cfg.band.clamp(p_hat);
        self.outcome = Some(PricingOutcome {
            price,
            p_hat,
            hb: self.hb,
            k_sum,
            denominator_sum,
        });

        // H_b broadcasts p* to the whole market.
        self.bc_span = Some(Span::enter_at("price/broadcast", "protocol", vts));
        let mut w = WireWriter::new();
        w.put_f64(price);
        let bytes = w.finish();
        let outs: Vec<Outbound> = (0..self.n)
            .filter(|&i| i != self.hb)
            .map(|i| Outbound {
                from: PartyId(self.hb),
                to: PartyId(i),
                label: "price/broadcast",
                payload: bytes.clone(),
            })
            .collect();
        self.state = PricingState::Consume {
            next: usize::from(self.hb == 0),
        };
        Ok(Transition::Send(outs))
    }
}

/// Number of children of tree position `pos` with fan-in `f` over `m`
/// positions.
fn tree_children(pos: usize, f: usize, m: usize) -> usize {
    let child_lo = pos * f + 1;
    if child_lo >= m {
        0
    } else {
        (m - child_lo).min(f)
    }
}

/// Decodes one `price/agg` pair, both halves validated.
fn decode_pair(
    pk: &pem_crypto::paillier::PublicKey,
    payload: &[u8],
) -> Result<(Ciphertext, Ciphertext), PemError> {
    let mut r = WireReader::new(payload);
    Ok((get_ct(&mut r, pk)?, get_ct(&mut r, pk)?))
}

impl ProtocolStateMachine for PricingMachine<'_> {
    type Output = PricingOutcome;
    type Error = PemError;

    fn initial_messages(&mut self) -> Result<Vec<Outbound>, PemError> {
        /// Which kickoff shape the starting state calls for.
        enum Kick {
            Ring,
            Tree,
            Star,
        }
        let kick = match &self.state {
            PricingState::Ring { .. } => Kick::Ring,
            PricingState::Star { .. } => Kick::Star,
            PricingState::Tree { .. } | PricingState::AwaitFinal => Kick::Tree,
            _ => unreachable!("kickoff happens exactly once"),
        };
        let m = self.sellers.len();
        match kick {
            Kick::Ring => {
                // The first seller opens the ring (straight to H_b when
                // it is alone).
                let (k, d) = self.terms[0].take().expect("computed at construction");
                let to = if m > 1 { self.sellers[1] } else { self.hb };
                let out = self.pair_out(self.sellers[0], to, &k, &d)?;
                if m == 1 {
                    self.state = PricingState::AwaitFinal;
                }
                Ok(vec![out])
            }
            Kick::Star => {
                // Every seller sends its pair straight to H_b, who folds
                // them together locally: same bytes, sequential depth 1 —
                // at the cost of an all-sellers fan-in on H_b's ingress
                // link.
                let mut outs = Vec::with_capacity(m);
                for pos in 0..m {
                    let (k, d) = self.terms[pos].take().expect("computed at construction");
                    outs.push(self.pair_out(self.sellers[pos], self.hb, &k, &d)?);
                }
                Ok(outs)
            }
            Kick::Tree => {
                // Leaves (the trailing positions) send immediately, in
                // the blocking driver's descending order; every inner
                // node waits for its children first.
                let f = self.fanin;
                let mut outs = Vec::new();
                for pos in (0..m).rev() {
                    if tree_children(pos, f, m) == 0 {
                        let (k, d) = self.terms[pos].take().expect("computed at construction");
                        outs.push(self.pair_out(
                            self.sellers[pos],
                            self.tree_parent(pos),
                            &k,
                            &d,
                        )?);
                    }
                }
                Ok(outs)
            }
        }
    }

    fn expecting(&self) -> Option<(PartyId, &'static str)> {
        match &self.state {
            PricingState::Ring { hop, .. } => Some((PartyId(self.sellers[*hop]), "price/agg")),
            PricingState::Star { .. } | PricingState::AwaitFinal => {
                Some((PartyId(self.hb), "price/agg"))
            }
            PricingState::Tree { pos, .. } => Some((PartyId(self.sellers[*pos]), "price/agg")),
            PricingState::Consume { next } => Some((PartyId(*next), "price/broadcast")),
            PricingState::Done => None,
        }
    }

    fn on_message(&mut self, env: Envelope) -> Result<Transition<PricingOutcome>, PemError> {
        let pk = self.keys.public(self.hb);
        let m = self.sellers.len();
        match std::mem::replace(&mut self.state, PricingState::Done) {
            PricingState::Ring { hop } => {
                // Ring pass over the sellers, accumulating both sums
                // homomorphically (the paper's Protocol 3 flow).
                let (k_in, d_in) = decode_pair(pk, &env.payload)?;
                let (k_own, d_own) = self.terms[hop].take().expect("computed at construction");
                let k_acc = pk.add_ciphertexts(&k_in, &k_own);
                let d_acc = pk.add_ciphertexts(&d_in, &d_own);
                let (to, next_state) = if hop + 1 < m {
                    (self.sellers[hop + 1], Some(hop + 1))
                } else {
                    (self.hb, None)
                };
                let out = self.pair_out(self.sellers[hop], to, &k_acc, &d_acc)?;
                self.state = match next_state {
                    Some(hop) => PricingState::Ring { hop },
                    None => PricingState::AwaitFinal,
                };
                Ok(Transition::Send(vec![out]))
            }
            PricingState::Star {
                received,
                k_acc,
                d_acc,
            } => {
                let (k_in, d_in) = decode_pair(pk, &env.payload)?;
                let k_acc = match k_acc {
                    None => k_in,
                    Some(acc) => pk.add_ciphertexts(&acc, &k_in),
                };
                let d_acc = match d_acc {
                    None => d_in,
                    Some(acc) => pk.add_ciphertexts(&acc, &d_in),
                };
                if received + 1 == m {
                    self.finish_aggregation(k_acc, d_acc, env.arrival_us)
                } else {
                    self.state = PricingState::Star {
                        received: received + 1,
                        k_acc: Some(k_acc),
                        d_acc: Some(d_acc),
                    };
                    Ok(Transition::Continue)
                }
            }
            PricingState::Tree {
                pos,
                remaining,
                k_acc,
                d_acc,
            } => {
                let (k_in, d_in) = decode_pair(pk, &env.payload)?;
                let k_acc = pk.add_ciphertexts(&k_acc, &k_in);
                let d_acc = pk.add_ciphertexts(&d_acc, &d_in);
                if remaining > 1 {
                    self.state = PricingState::Tree {
                        pos,
                        remaining: remaining - 1,
                        k_acc,
                        d_acc,
                    };
                    return Ok(Transition::Continue);
                }
                // Node complete: forward to the parent, then move to the
                // next (lower) position — every one of which is an inner
                // node, since leaves occupy the trailing positions.
                let out =
                    self.pair_out(self.sellers[pos], self.tree_parent(pos), &k_acc, &d_acc)?;
                self.state = if pos == 0 {
                    PricingState::AwaitFinal
                } else {
                    let pos = pos - 1;
                    let (k_acc, d_acc) = self.terms[pos].take().expect("computed at construction");
                    PricingState::Tree {
                        pos,
                        remaining: tree_children(pos, self.fanin, m),
                        k_acc,
                        d_acc,
                    }
                };
                Ok(Transition::Send(vec![out]))
            }
            PricingState::AwaitFinal => {
                let (k_ct, d_ct) = decode_pair(pk, &env.payload)?;
                self.finish_aggregation(k_ct, d_ct, env.arrival_us)
            }
            PricingState::Consume { next } => {
                let mut r = WireReader::new(&env.payload);
                let p = r.get_f64()?;
                let price = self
                    .outcome
                    .as_ref()
                    .expect("set by finish_aggregation")
                    .price;
                debug_assert_eq!(p.to_bits(), price.to_bits());
                let mut next = next + 1;
                if next == self.hb {
                    next += 1;
                }
                if next < self.n {
                    self.state = PricingState::Consume { next };
                    Ok(Transition::Continue)
                } else {
                    if let Some(span) = self.bc_span.take() {
                        span.finish_at(env.arrival_us);
                    }
                    Ok(Transition::Done(self.outcome.take().expect("just checked")))
                }
            }
            PricingState::Done => unreachable!("fed a completed pricing machine"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantize::Quantizer;
    use pem_market::{optimal_price, optimal_price_unclamped, AgentWindow, Role};
    use pem_net::SimNetwork;

    fn setup(
        agents_data: Vec<AgentWindow>,
    ) -> (
        SimNetwork,
        KeyDirectory,
        Vec<AgentCtx>,
        Vec<usize>,
        Vec<usize>,
        PemConfig,
        HashDrbg,
    ) {
        let cfg = PemConfig::fast_test();
        let q = Quantizer::new(cfg.scale);
        let n = agents_data.len();
        let keys = KeyDirectory::generate(n, cfg.key_bits, cfg.seed).expect("keys");
        let mut rng = HashDrbg::from_seed_label(b"p3-test", 1);
        let mut agents = Vec::new();
        let mut sellers = Vec::new();
        let mut buyers = Vec::new();
        for (i, data) in agents_data.into_iter().enumerate() {
            let ctx = AgentCtx::prepare(i, data, &q, rng.gen::<u64>() >> 24).expect("prepare");
            match ctx.role {
                Role::Seller => sellers.push(i),
                Role::Buyer => buyers.push(i),
                Role::OffMarket => {}
            }
            agents.push(ctx);
        }
        (SimNetwork::new(n), keys, agents, sellers, buyers, cfg, rng)
    }

    fn paper_agents() -> Vec<AgentWindow> {
        vec![
            AgentWindow::new(0, 4.0, 1.0, 0.5, 0.9, 28.0),
            AgentWindow::new(1, 6.0, 0.5, -0.2, 0.85, 35.0),
            AgentWindow::new(2, 0.0, 3.0, 0.0, 0.9, 20.0),
            AgentWindow::new(3, 0.0, 9.0, 0.0, 0.9, 22.0),
        ]
    }

    #[test]
    fn matches_plaintext_formula() {
        let data = paper_agents();
        let seller_rows: Vec<AgentWindow> = data
            .iter()
            .filter(|a| a.net_energy() > 0.0)
            .copied()
            .collect();
        let (mut net, keys, agents, sellers, buyers, cfg, mut rng) = setup(data);
        let out = run(
            &mut net, &keys, &agents, &sellers, &buyers, &cfg, &mut None, &mut rng,
        )
        .expect("protocol 3");
        let expected = optimal_price(&seller_rows, &cfg.band);
        assert!(
            (out.price - expected).abs() < 1e-6,
            "pem {} vs plaintext {expected}",
            out.price
        );
        let expected_raw = optimal_price_unclamped(&seller_rows, &cfg.band);
        assert!((out.p_hat - expected_raw).abs() < 1e-6);
    }

    #[test]
    fn reveals_only_the_aggregates() {
        let data = paper_agents();
        let (mut net, keys, agents, sellers, buyers, cfg, mut rng) = setup(data.clone());
        let out = run(
            &mut net, &keys, &agents, &sellers, &buyers, &cfg, &mut None, &mut rng,
        )
        .expect("protocol 3");
        // The revealed sums match the Lemma 3 surface …
        let k_sum: f64 = data
            .iter()
            .filter(|a| a.net_energy() > 0.0)
            .map(|a| a.preference)
            .sum();
        assert!((out.k_sum - k_sum).abs() < 1e-6);
        // … and the chosen party is a buyer.
        assert!(buyers.contains(&out.hb));
    }

    #[test]
    fn price_is_clamped_into_band() {
        // Huge preferences: p̂ blows past the ceiling.
        let data = vec![
            AgentWindow::new(0, 0.5, 0.2, 0.0, 0.9, 10_000.0),
            AgentWindow::new(1, 0.0, 2.0, 0.0, 0.9, 20.0),
        ];
        let (mut net, keys, agents, sellers, buyers, cfg, mut rng) = setup(data);
        let out = run(
            &mut net, &keys, &agents, &sellers, &buyers, &cfg, &mut None, &mut rng,
        )
        .expect("protocol 3");
        assert!(out.p_hat > cfg.band.ceiling);
        assert_eq!(out.price, cfg.band.ceiling);
    }

    #[test]
    fn single_seller_single_buyer() {
        let data = vec![
            AgentWindow::new(0, 2.0, 0.5, 0.0, 0.9, 30.0),
            AgentWindow::new(1, 0.0, 5.0, 0.0, 0.9, 25.0),
        ];
        let (mut net, keys, agents, sellers, buyers, cfg, mut rng) = setup(data);
        let out = run(
            &mut net, &keys, &agents, &sellers, &buyers, &cfg, &mut None, &mut rng,
        )
        .expect("protocol 3");
        assert!(out.price >= cfg.band.floor && out.price <= cfg.band.ceiling);
        assert_eq!(net.pending(), 0);
    }

    #[test]
    fn empty_sellers_rejected() {
        let data = vec![AgentWindow::new(0, 0.0, 5.0, 0.0, 0.9, 25.0)];
        let (mut net, keys, agents, _sellers, buyers, cfg, mut rng) = setup(data);
        assert!(matches!(
            run(
                &mut net,
                &keys,
                &agents,
                &[],
                &buyers,
                &cfg,
                &mut None,
                &mut rng
            ),
            Err(PemError::Protocol(_))
        ));
    }

    #[test]
    fn star_topology_matches_ring() {
        let data = paper_agents();
        let (mut net_r, keys, agents, sellers, buyers, cfg, mut rng) = setup(data.clone());
        let ring = run_with_topology(
            &mut net_r,
            &keys,
            &agents,
            &sellers,
            &buyers,
            &cfg,
            Topology::Ring,
            &mut None,
            &mut rng,
        )
        .expect("ring");
        let mut net_s = SimNetwork::new(agents.len());
        let star = run_with_topology(
            &mut net_s,
            &keys,
            &agents,
            &sellers,
            &buyers,
            &cfg,
            Topology::Star,
            &mut None,
            &mut rng,
        )
        .expect("star");
        assert!((ring.price - star.price).abs() < 1e-9);
        assert!((ring.k_sum - star.k_sum).abs() < 1e-9);
        // Same number of aggregation messages, same byte volume class.
        assert_eq!(
            net_r.stats().per_label["price/agg"].messages,
            net_s.stats().per_label["price/agg"].messages
        );
        let rb = net_r.stats().per_label["price/agg"].bytes as f64;
        let sb = net_s.stats().per_label["price/agg"].bytes as f64;
        assert!((rb / sb - 1.0).abs() < 0.2, "bytes ring {rb} vs star {sb}");
    }

    #[test]
    fn traffic_labelled_for_table1() {
        let (mut net, keys, agents, sellers, buyers, cfg, mut rng) = setup(paper_agents());
        run(
            &mut net, &keys, &agents, &sellers, &buyers, &cfg, &mut None, &mut rng,
        )
        .expect("protocol 3");
        let s = net.stats();
        assert!(s.per_label.contains_key("price/agg"));
        assert!(s.per_label.contains_key("price/broadcast"));
        // Two ciphertexts per hop: each ~2·key_bits.
        let hops = sellers.len() as u64; // (ring) + final hand-off
        assert_eq!(s.per_label["price/agg"].messages, hops);
    }
}
