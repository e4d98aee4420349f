//! The correctness gate: every coalition window against the plaintext
//! market engine, and the traced run against the untraced one.

use pem_core::PemWindowOutcome;
use pem_market::{AgentWindow, MarketEngine, MarketKind, Role};
use pem_net::NetStats;

/// Compares a settled window with the plaintext reference on the same
/// members' data: market kind, price, and the seller, buyer and energy
/// (within 1e-5 kWh) of each trade. The price must agree within 1e-6
/// plus the rounding the protocol's fixed-point inputs allow: sellers
/// submit `k` and `g + 1 + εb − b` quantized at `scale`, each off by at
/// most half a step, and Eq. 13's `p = sqrt(R·Σk / Σd)` carries that as
/// `|Δp| ≤ p/2 · n·q · (1/Σk + 1/|Σd|)` with `q = 1/(2·scale)`.
///
/// # Errors
///
/// The first disagreement, as text.
pub fn against_reference(
    engine: &MarketEngine,
    scale: u64,
    members: &[AgentWindow],
    pem: &PemWindowOutcome,
) -> Result<(), String> {
    let plain = engine.run_window(members);
    if pem.kind != plain.kind {
        return Err(format!("kind {:?}, reference {:?}", pem.kind, plain.kind));
    }
    let mut tolerance = 1e-6;
    if plain.kind == MarketKind::General {
        let sellers = members.iter().filter(|a| a.role() == Role::Seller);
        let (n, k, d) = sellers.fold((0.0, 0.0, 0.0), |(n, k, d), a| {
            (n + 1.0, k + a.preference, d + a.pricing_denominator_term())
        });
        let step = 0.5 / scale as f64;
        tolerance += plain.price / 2.0 * n * step * (1.0 / k + 1.0 / f64::abs(d));
    }
    if (pem.price - plain.price).abs() > tolerance {
        return Err(format!(
            "price {}, reference {} (tolerance {tolerance:e})",
            pem.price, plain.price
        ));
    }
    if pem.trades.len() != plain.trades.len() {
        return Err(format!(
            "{} trades, reference {}",
            pem.trades.len(),
            plain.trades.len()
        ));
    }
    for (a, b) in pem.trades.iter().zip(&plain.trades) {
        if a.seller != b.seller || a.buyer != b.buyer || (a.energy - b.energy).abs() >= 1e-5 {
            return Err(format!("trade {a:?}, reference {b:?}"));
        }
    }
    Ok(())
}

/// The bits of a window's market outcome and traffic, for comparing the
/// traced run with the untraced one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest {
    kind: MarketKind,
    price: u64,
    /// Seller, buyer, energy bits and payment bits of each trade.
    trades: Vec<(usize, usize, u64, u64)>,
    net: NetStats,
}

impl Digest {
    /// Captures an outcome.
    pub fn of(outcome: &PemWindowOutcome) -> Digest {
        Digest {
            kind: outcome.kind,
            price: outcome.price.to_bits(),
            trades: outcome
                .trades
                .iter()
                .map(|t| {
                    (
                        t.seller.0,
                        t.buyer.0,
                        t.energy.to_bits(),
                        t.payment.to_bits(),
                    )
                })
                .collect(),
            net: outcome.net.clone(),
        }
    }

    /// The window's traffic statistics.
    pub fn net(&self) -> &NetStats {
        &self.net
    }
}
