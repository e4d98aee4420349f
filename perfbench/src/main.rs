//! The PEM benchmark. One run measures one workload:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-1024 --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of an untraced run;
//! `--trace 1` runs the same windows untraced and then traced, checks
//! that both settled bit-identical markets, and reports the per-layer
//! split. Every coalition window is checked against the plaintext
//! market engine. Human-readable lines come first; the last line of
//! standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. Any failure exits non-zero.

mod check;
mod inputs;
mod kernels;
mod probes;
mod reference;
mod stats;
mod tiling;
mod workloads;

use std::time::Instant;

use pem_market::{AgentWindow, MarketEngine, MarketKind};
use pem_telemetry::Span;

use check::Digest;
use inputs::Inputs;
use workloads::{Probe, Spec, State, SPECS};

/// Command-line arguments.
struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let spec = Spec::named(name).ok_or_else(|| {
        let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {name:?} (one of {})", names.join(", "))
    })?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        spec,
        seed,
        seconds,
        trace,
    })
}

/// One pass over a run's windows.
#[derive(Default)]
struct Pass {
    /// Wall time of each window, ms.
    wall_ms: Vec<f64>,
    /// Wall time of each window scaled to the nominal reference speed, ms.
    scaled_ms: Vec<f64>,
    /// Each coalition window's outcome bits (`None` when it failed).
    digests: Vec<Option<Digest>>,
    /// Coalition windows attempted.
    attempted: u64,
    /// What went wrong, one line per failed coalition window.
    failures: Vec<String>,
    /// Protocol payload bytes of all settled coalition windows.
    bytes: u64,
    /// Protocol messages of all settled coalition windows.
    messages: u64,
    /// Settled coalition windows per regime: general, extreme, no-market.
    regimes: [u64; 3],
}

/// Runs `windows` windows, each between two runs of the reference
/// kernel, and checks each coalition window against the plaintext
/// market. With a probe, each window runs traced inside a benchmark span.
fn run_pass(
    args: &Args,
    state: &mut State,
    inputs: &Inputs,
    windows: usize,
    mut probe: Option<&mut Probe>,
) -> Pass {
    let cfg = args.spec.pem_config(args.seed);
    let engine = MarketEngine::new(cfg.band);
    let mut pass = Pass::default();
    for k in 0..windows {
        let w = inputs.window(k, windows);
        let population = inputs.population(w);
        let before = reference::time();
        let span = probe
            .is_some()
            .then(|| Span::enter(tiling::WINDOW_SPAN, "bench"));
        let run = workloads::run_window(state, inputs, &population, probe.as_deref_mut());
        drop(span);
        let scale = reference::scale(before, reference::time());
        pass.wall_ms.push(run.wall.as_secs_f64() * 1e3);
        pass.scaled_ms.push(run.wall.as_secs_f64() * 1e3 * scale);
        for (idx, coalition) in run.coalitions.into_iter().enumerate() {
            pass.attempted += 1;
            let members: Vec<AgentWindow> =
                coalition.members.iter().map(|&i| population[i]).collect();
            let checked = coalition.result.and_then(|outcome| {
                check::against_reference(&engine, cfg.scale, &members, &outcome).map(|()| outcome)
            });
            match checked {
                Ok(outcome) => {
                    pass.bytes += outcome.net.total_bytes;
                    pass.messages += outcome.net.total_messages;
                    pass.regimes[match outcome.kind {
                        MarketKind::General => 0,
                        MarketKind::Extreme => 1,
                        MarketKind::NoMarket => 2,
                    }] += 1;
                    pass.digests.push(Some(Digest::of(&outcome)));
                }
                Err(e) => {
                    pass.failures
                        .push(format!("day window {w}, coalition {idx}: {e}"));
                    pass.digests.push(None);
                }
            }
        }
    }
    if let State::Grid(grid) = state {
        if let Err(e) = grid.ledger().validate() {
            pass.failures.push(format!("settlement ledger: {e}"));
        }
    }
    pass
}

/// Metrics in print order: name, value, unit.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// What a run reports.
struct Report {
    metrics: Metrics,
    attempted: u64,
    failures: Vec<String>,
}

/// An untraced run: set up several times, then measure the windows.
///
/// Key generation searches for primes, so its time depends on the seed
/// (by a fifth either way at 2048 bits). Every set-up but the last
/// therefore draws its keys from a fixed seed of its own, the same in
/// every run, so that the median over the set-ups measures the same
/// work from run to run; the last set-up uses the run's seed and runs
/// the windows.
fn end_to_end(args: &Args, inputs: &Inputs, windows: usize) -> Result<Report, String> {
    let spec = &args.spec;
    let mut setups = Vec::with_capacity(spec.setups);
    let mut state = None;
    for left in (0..spec.setups as u64).rev() {
        drop(state.take());
        let seed = match left {
            0 => args.seed,
            _ => 0xA076_1D64_78BD_642Fu64.wrapping_mul(left),
        };
        let before = reference::time();
        let t = Instant::now();
        state = Some(workloads::setup(spec, inputs, seed)?);
        let wall = t.elapsed().as_secs_f64();
        setups.push(wall * reference::scale(before, reference::time()));
    }
    let mut state = state.ok_or("no set-up ran")?;
    let mut pass = run_pass(args, &mut state, inputs, windows, None);
    let agent_windows = (spec.homes * windows) as f64;
    let scaled_s: f64 = pass.scaled_ms.iter().sum::<f64>() / 1e3;
    let round = |v: &[f64]| v.iter().map(|ms| ms.round()).collect::<Vec<_>>();
    println!(
        "{}: {windows} windows of {} agents in {} coalitions from the day of seed {}; regimes general/extreme/no-market {:?}",
        spec.name,
        spec.homes,
        inputs.coalitions.len(),
        inputs.day_seed,
        pass.regimes
    );
    println!("window wall times, ms: {:?}", round(&pass.wall_ms));
    println!(
        "scaled to a {:?} reference kernel, ms: {:?}",
        reference::NOMINAL,
        round(&pass.scaled_ms)
    );
    println!(
        "unscaled window p50 {:.3} ms",
        stats::median(&mut pass.wall_ms)
    );
    let (tail, tail_pct, samples) = stats::tail(&mut pass.scaled_ms);
    println!("window_tail_ms is p{tail_pct:.1} of {samples} windows");
    println!(
        "setup_s is the median of {} scaled set-ups: {setups:?}",
        setups.len()
    );
    Ok(Report {
        metrics: vec![
            ("window_p50_ms", stats::median(&mut pass.scaled_ms), "ms"),
            ("window_tail_ms", tail, "ms"),
            ("agent_windows_per_s", agent_windows / scaled_s, "1/s"),
            (
                "bytes_per_agent_window",
                pass.bytes as f64 / agent_windows,
                "B",
            ),
            ("setup_s", stats::median(&mut setups), "s"),
            ("peak_rss_mb", stats::peak_rss_mib()?, "MiB"),
        ],
        attempted: pass.attempted,
        failures: pass.failures,
    })
}

/// A traced run: the windows untraced, then traced on a fresh set-up,
/// then the kernel rows.
fn per_layer(args: &Args, inputs: &Inputs, windows: usize) -> Result<Report, String> {
    let spec = &args.spec;
    let mut state = workloads::setup(spec, inputs, args.seed)?;
    let mut plain = run_pass(args, &mut state, inputs, windows, None);
    drop(state);

    let mut state = workloads::setup(spec, inputs, args.seed)?;
    pem_telemetry::install();
    pem_telemetry::reset_metrics();
    pem_telemetry::drain();
    pem_telemetry::drain_msgs();
    let mut probe = Probe::default();
    let mut traced = run_pass(args, &mut state, inputs, windows, Some(&mut probe));
    let events = pem_telemetry::drain();
    let counters = pem_telemetry::counter_snapshot();
    let histograms = pem_telemetry::histogram_snapshot();
    pem_telemetry::uninstall();
    drop(state);

    let mut failures = std::mem::take(&mut plain.failures);
    failures.append(&mut traced.failures);
    let differing = plain
        .digests
        .iter()
        .zip(&traced.digests)
        .filter(|(a, b)| a != b)
        .count();
    if differing > 0 || plain.digests.len() != traced.digests.len() {
        failures.push(format!(
            "{differing} coalition windows settled differently traced and untraced"
        ));
    }
    for (k, (net, digest)) in probe.nets.iter().zip(&traced.digests).enumerate() {
        if let Some(digest) = digest {
            if !net.matches(digest.net()) {
                failures.push(format!(
                    "window {k}: timing transport counted other traffic than the fabric"
                ));
            }
        }
    }

    let n = windows as f64;
    let counter = |name: &str| {
        counters
            .iter()
            .find(|(c, _)| *c == name)
            .map_or(0.0, |&(_, v)| v as f64)
    };
    let tiling = tiling::tile(&events);
    if tiling.windows != windows {
        failures.push(format!(
            "{} window spans traced, {windows} windows run",
            tiling.windows
        ));
    }
    if !tiling.unmapped.is_empty() {
        println!(
            "spans without a layer row (counted untraced): {:?}",
            tiling.unmapped
        );
    }
    let row = |name: &str| tiling.rows.get(name).copied().unwrap_or(0.0) / n / 1e3;

    let cfg = spec.pem_config(args.seed);
    let kernels = kernels::measure(&cfg, args.seed)?;
    let comparisons_per_window = traced.attempted as f64 / n;
    let compare_self_ms = row("eval.compare.self_ms");

    let net_mean = |f: fn(&probes::NetProbe) -> f64| {
        if probe.nets.is_empty() {
            0.0
        } else {
            probe.nets.iter().map(f).sum::<f64>() / probe.nets.len() as f64
        }
    };
    let (hits, misses) = (counter("pool/hit"), counter("pool/miss"));
    let mut polls_us: Vec<f64> = probe.polls.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    let (poll_p50, poll_max) = if polls_us.is_empty() {
        (0.0, 0.0)
    } else {
        (
            stats::percentile(&mut polls_us, 50.0),
            stats::percentile(&mut polls_us, 100.0),
        )
    };
    let queue_depth_p50 = histograms
        .iter()
        .find(|(name, _)| *name == "sched/queue-depth")
        .map_or(0.0, |(_, h)| h.percentile(0.5) as f64);

    let mut metrics: Metrics = vec![
        ("bignum.modpow_calls", counter("crypto/modpow") / n, "count"),
        (
            "bignum.fixed_base_pow_calls",
            counter("crypto/fixed_base_pow") / n,
            "count",
        ),
        (
            "bignum.multi_modpow_calls",
            counter("crypto/multi_modpow") / n,
            "count",
        ),
        (
            "bignum.pow_mul_calls",
            counter("crypto/pow_mul") / n,
            "count",
        ),
        ("paillier.keygen_ms", kernels.keygen_ms, "ms"),
        ("paillier.encrypt_us", kernels.encrypt_us, "us"),
        ("paillier.decrypt_us", kernels.decrypt_us, "us"),
        ("ot.base_us", kernels.ot_base_us, "us"),
        ("gc.garble_us", kernels.garble_us, "us"),
        ("gc.eval_us", kernels.gc_eval_us, "us"),
        ("compare.local_ms", kernels.compare_local_ms, "ms"),
        (
            "compare.trace_ratio",
            compare_self_ms / (comparisons_per_window * kernels.compare_local_ms),
            "ratio",
        ),
    ];
    for name in tiling::ROWS {
        metrics.push((name, row(name), "ms"));
    }
    metrics.extend([
        ("tiling.window_ms", tiling.wall_us as f64 / n / 1e3, "ms"),
        (
            "pool.hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
            "ratio",
        ),
        ("pool.generated", counter("pool/generated") / n, "count"),
        (
            "net.messages",
            traced.messages as f64 / windows as f64,
            "count",
        ),
        ("net.bytes", traced.bytes as f64 / windows as f64, "B"),
        (
            "net.send_us",
            net_mean(|p| p.send_busy.as_secs_f64() * 1e6),
            "us",
        ),
        (
            "net.recv_us",
            net_mean(|p| p.recv_busy.as_secs_f64() * 1e6),
            "us",
        ),
        (
            "net.peak_pending",
            probe.nets.iter().map(|p| p.peak_pending).max().unwrap_or(0) as f64,
            "count",
        ),
        (
            "net.critical_path_us",
            net_mean(|p| p.critical_path_us as f64),
            "us",
        ),
        ("executor.polls", probe.executor_polls as f64 / n, "count"),
        ("executor.stalls", probe.executor_stalls as f64 / n, "count"),
        (
            "executor.peak_resident",
            probe.executor_peak_resident as f64,
            "count",
        ),
        ("executor.poll_p50_us", poll_p50, "us"),
        ("executor.poll_max_us", poll_max, "us"),
        (
            "sched.parallel_efficiency",
            if probe.worker_capacity.is_zero() {
                0.0
            } else {
                probe.coalition_busy.as_secs_f64() / probe.worker_capacity.as_secs_f64()
            },
            "ratio",
        ),
        ("sched.steals", counter("sched/steals") / n, "count"),
        ("sched.queue_depth_p50", queue_depth_p50, "count"),
        (
            "trace.overhead_ratio",
            stats::median(&mut traced.scaled_ms) / stats::median(&mut plain.scaled_ms) - 1.0,
            "ratio",
        ),
    ]);

    let rows: f64 = tiling::ROWS.iter().map(|name| row(name)).sum();
    println!(
        "{}: {windows} windows traced; layer rows sum to {rows:.3} ms of a {:.3} ms traced window",
        spec.name,
        tiling.wall_us as f64 / n / 1e3
    );
    Ok(Report {
        metrics,
        attempted: plain.attempted + traced.attempted,
        failures,
    })
}

fn json_result(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failures.is_empty(),
        report.attempted,
        report.failures.len(),
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let windows = args.spec.windows_for(args.seconds);
    let report =
        Inputs::generate(args.spec.homes, args.spec.coalition, args.seed).and_then(|inputs| {
            if args.trace {
                per_layer(&args, &inputs, windows)
            } else {
                end_to_end(&args, &inputs, windows)
            }
        });
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for (name, value, unit) in &report.metrics {
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not a number");
            std::process::exit(1);
        }
        println!("{name} = {value} {unit}");
    }
    for failure in report.failures.iter().take(20) {
        println!("FAILED {failure}");
    }
    println!("{}", json_result(&report));
    if !report.failures.is_empty() {
        std::process::exit(1);
    }
}
