//! Golden-fingerprint regression at every worker count, on two levels:
//!
//! * `GridReport::fingerprint` covers the wire and crypto streams too
//!   (traffic totals, the disclosure surface, the settlement tip). It was
//!   first recorded before the Paillier kernel overhaul and is re-pinned
//!   only when a change deliberately moves bytes or DRBG draws.
//! * `GridReport::market_fingerprint` covers the market outcome alone
//!   (membership, regimes, price bits, trades). A crypto or codec change
//!   must keep it bit-identical on both engines.
//!
//! The determinism tests (`determinism.rs`) prove runs agree with *each
//! other*; this test pins them to the *historical* bits, so a kernel swap
//! that silently changed a ciphertext byte or an RNG draw would fail
//! loudly instead of re-baselining itself.

use pem_core::PemConfig;
use pem_data::{TraceConfig, TraceGenerator};
use pem_market::AgentWindow;
use pem_sched::{Engine, GridConfig, GridOrchestrator, GridReport, PartitionStrategy, RetryPolicy};

fn day(windows: usize, homes: usize) -> Vec<Vec<AgentWindow>> {
    let trace = TraceGenerator::new(TraceConfig {
        homes,
        windows: 96,
        seed: 40,
        ..TraceConfig::default()
    })
    .generate();
    (0..windows).map(|w| trace.window_agents(44 + w)).collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn reports(workers: usize, engine: Engine) -> Vec<GridReport> {
    let mut grid = GridOrchestrator::new(GridConfig {
        pem: PemConfig::fast_test().with_randomizer_pool(6),
        coalition_size: 10,
        workers,
        engine,
        strategy: PartitionStrategy::SurplusBalanced,
        coupling: None,
        retry: RetryPolicy::default(),
    })
    .expect("grid");
    day(2, 40)
        .iter()
        .map(|pop| grid.run_window(pop).expect("window"))
        .collect()
}

fn fingerprints(workers: usize) -> Vec<String> {
    reports(workers, Engine::Threads)
        .iter()
        .map(|r| hex(&r.fingerprint()))
        .collect()
}

/// Re-pinned when the comparison moved to one batched oblivious transfer
/// and ciphertexts/group elements to fixed-width encodings: both change
/// `net.total_bytes` (the offer carries its one OT setup without a
/// count), and the batch draws one OT setup per comparison
/// instead of one per bit, which moves the DRBG stream. The market
/// goldens below did not move. To inspect current values:
/// `cargo test -p pem-sched --test fingerprint_golden -- --nocapture`.
const GOLDEN: [&str; 2] = [
    "de13123e3d94accc54b1aa8e3bb5f9a9201619790a8358818c4c48eed7942cd7",
    "cd89e9a1639198f831ce54704643db93a26180104733c3e96f2c1db69ed6f2ab",
];

#[test]
fn coupling_off_fingerprints_match_pre_overhaul_goldens() {
    for workers in [1usize, 4, 8] {
        let got = fingerprints(workers);
        for (w, fp) in got.iter().enumerate() {
            println!("workers={workers} window={w} fingerprint={fp}");
        }
        assert_eq!(
            got,
            GOLDEN.to_vec(),
            "coupling-off fingerprint drifted at {workers} workers"
        );
    }
}

/// Market-outcome goldens: membership, regimes, price bits and trades
/// only (`GridReport::market_fingerprint`). They do not depend on the
/// crypto streams or the wire encoding, so they hold across changes to
/// either; recorded before the batched oblivious transfer landed.
const MARKET_GOLDEN: [&str; 2] = [
    "16b5c176b48ef757ecaa15566debf575a4af9dbb0ed8af9d06e49c1c44274250",
    "a81bb4a106f9a16428b2db693b270db6955bd6c3c20bf54ddf7eb24aa076430a",
];

#[test]
fn market_fingerprints_match_goldens_on_both_engines() {
    for engine in [Engine::Threads, Engine::Fabric { batch: 8 }] {
        for workers in [1usize, 4, 8] {
            let got: Vec<String> = reports(workers, engine)
                .iter()
                .map(|r| hex(&r.market_fingerprint()))
                .collect();
            for (w, fp) in got.iter().enumerate() {
                println!("engine={engine} workers={workers} window={w} market={fp}");
            }
            assert_eq!(
                got,
                MARKET_GOLDEN.to_vec(),
                "market-outcome fingerprint drifted ({engine}, {workers} workers)"
            );
        }
    }
}
