//! Telemetry must be observation-only: installing the collector changes
//! what is *recorded*, never what is *computed*. A grid run with the
//! collector off and an identically-seeded run with it on must produce
//! bit-identical `GridReport::fingerprint`s — the same goldens the
//! fingerprint regression pins.
//!
//! Both phases live in ONE `#[test]` because the collector is process
//! global: running them as separate tests would race on install state.

use pem_core::PemConfig;
use pem_data::{TraceConfig, TraceGenerator};
use pem_market::AgentWindow;
use pem_sched::{Engine, GridConfig, GridOrchestrator, PartitionStrategy, RetryPolicy};
use pem_telemetry as telemetry;

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

fn run(workers: usize) -> Vec<pem_sched::GridReport> {
    let mut grid = GridOrchestrator::new(GridConfig {
        pem: PemConfig::fast_test().with_randomizer_pool(6),
        coalition_size: 10,
        workers,
        engine: Engine::Threads,
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

/// Same goldens as `fingerprint_golden.rs` (re-pinned there, with the
/// reason) — the telemetry-on run must hit the same bits.
const GOLDEN: [&str; 2] = [
    "de13123e3d94accc54b1aa8e3bb5f9a9201619790a8358818c4c48eed7942cd7",
    "cd89e9a1639198f831ce54704643db93a26180104733c3e96f2c1db69ed6f2ab",
];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn collector_on_and_off_produce_identical_fingerprints() {
    // --- Phase 1: collector off (pristine process state). --------------
    assert!(!telemetry::enabled(), "collector must start uninstalled");
    let off = run(4);
    let off_fps: Vec<String> = off.iter().map(|r| hex(&r.fingerprint())).collect();
    assert!(
        off.iter().all(|r| r.profile.is_none()),
        "no collector → no profile in the report"
    );

    // --- Phase 2: identical run with the collector installed. ----------
    assert!(telemetry::install());
    let on = run(4);
    telemetry::uninstall();
    let on_fps: Vec<String> = on.iter().map(|r| hex(&r.fingerprint())).collect();

    assert_eq!(
        off_fps, on_fps,
        "installing telemetry changed a protocol output"
    );
    assert_eq!(
        off_fps,
        GOLDEN.to_vec(),
        "telemetry PR drifted the golden fingerprints"
    );

    // The collector-on run did actually record: every window carries a
    // span profile covering the driver phases and the protocol tree.
    for r in &on {
        let profile = r.profile.as_ref().expect("collector on → profile");
        for phase in ["window", "window/eval", "window/dist", "pool/refill"] {
            let row = profile
                .row(phase)
                .unwrap_or_else(|| panic!("missing span row {phase:?}"));
            assert!(row.count > 0, "empty span row {phase:?}");
        }
        // Per-shard protocol sub-spans fold in too (one per coalition).
        assert!(profile.row("eval/demand-agg").is_some());
        assert!(profile.row("dist/total-agg").is_some());
    }

    // And the kernel/pool counters moved while the collector was on.
    let counters = telemetry::counter_snapshot();
    let get = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("counter {name:?} not registered"))
    };
    assert!(get("crypto/modpow") > 0, "modpow counter never bumped");
    assert!(
        get("pool/hit") + get("pool/miss") > 0,
        "randomizer pool counters never bumped"
    );
    // Every comparison is one OT batch of `compare_bits` transfers.
    let batches = get("ot/batches");
    assert!(batches > 0, "OT batch counter never bumped");
    assert_eq!(
        get("ot/transfers"),
        batches * PemConfig::fast_test().compare_bits as u64,
        "one batch per comparison, one transfer per evaluator bit"
    );
}
