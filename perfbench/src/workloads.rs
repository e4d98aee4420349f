//! The four workloads: their configurations, their set-up and one
//! trading window of each.

use std::time::{Duration, Instant};

use pem_core::{Pem, PemConfig, PemWindowOutcome};
use pem_fabric::Executor;
use pem_market::{AgentWindow, PriceBand};
use pem_net::{LatencyModel, SimNetwork};
use pem_sched::{
    CoalitionStatus, CouplingConfig, Engine, GridConfig, GridOrchestrator, PartitionStrategy,
    RetryPolicy,
};

use crate::inputs::Inputs;
use crate::probes::{NetProbe, TimedTask, TimingTransport};

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One 12-agent coalition at the paper's 1024-bit setting (Fig. 5).
    Paper1024,
    /// One 32-agent coalition at 2048-bit Paillier keys.
    Paper2048Wide,
    /// The sharded grid on the thread engine, with pool and coupling.
    GridFast,
    /// Many small coalitions multiplexed on one executor thread.
    FabricMultiplex,
}

/// A workload's fixed shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name on the command line.
    pub name: &'static str,
    /// Which workload.
    pub kind: Kind,
    /// Population size.
    pub homes: usize,
    /// Maximum coalition size.
    pub coalition: usize,
    /// Windows per requested second: fixes the run length, so every
    /// commit measures the same windows.
    pub windows_per_second: f64,
    /// Set-ups timed in an untraced run (their median is `setup_s`).
    pub setups: usize,
}

/// Every workload, in the order the benchmark documents them.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "paper-1024",
        kind: Kind::Paper1024,
        homes: 12,
        coalition: 12,
        windows_per_second: 0.9,
        setups: 9,
    },
    Spec {
        name: "paper-2048-wide",
        kind: Kind::Paper2048Wide,
        homes: 32,
        coalition: 32,
        windows_per_second: 0.6,
        setups: 3,
    },
    Spec {
        name: "grid-fast",
        kind: Kind::GridFast,
        homes: 240,
        coalition: 12,
        windows_per_second: 2.8,
        setups: 5,
    },
    Spec {
        name: "fabric-multiplex",
        kind: Kind::FabricMultiplex,
        homes: 120,
        coalition: 4,
        windows_per_second: 1.6,
        setups: 9,
    },
];

/// Resident coalitions on the `fabric-multiplex` executor: fewer than
/// its coalitions, so admission queues.
const FABRIC_BATCH: usize = 8;

impl Spec {
    /// Looks a workload up by name.
    pub fn named(name: &str) -> Option<Spec> {
        SPECS.iter().copied().find(|s| s.name == name)
    }

    /// Windows measured in a run of `seconds`.
    pub fn windows_for(&self, seconds: f64) -> usize {
        ((seconds * self.windows_per_second).ceil() as usize).max(1)
    }

    /// Protocol configuration of every coalition (its `seed` is the
    /// run's seed; coalitions derive their own from it).
    pub fn pem_config(&self, seed: u64) -> PemConfig {
        let mut cfg = match self.kind {
            Kind::Paper1024 => PemConfig::paper(1024).with_latency(LatencyModel::lan()),
            Kind::Paper2048Wide => PemConfig::paper(2048).with_latency(LatencyModel::lan()),
            Kind::GridFast => {
                let mut cfg = PemConfig::fast_test().with_randomizer_pool(8);
                // The paper's narrow band pins most prices to the floor;
                // this wider spread lets prices land inside the band.
                cfg.band = PriceBand {
                    grid_retail: 120.0,
                    grid_feed_in: 20.0,
                    floor: 30.0,
                    ceiling: 110.0,
                };
                cfg
            }
            Kind::FabricMultiplex => PemConfig::fast_test(),
        };
        cfg.seed = seed;
        cfg
    }

    /// Worker threads the workload uses for coalition windows.
    pub fn workers(&self) -> usize {
        match self.kind {
            Kind::GridFast => std::thread::available_parallelism().map_or(1, |n| n.get()),
            _ => 1,
        }
    }
}

/// A set-up workload, ready to run windows.
pub enum State {
    /// One coalition over the whole population.
    Single(Box<Pem>),
    /// The sharded grid.
    Grid(Box<GridOrchestrator>),
    /// One market per coalition, multiplexed per window.
    Fabric(Vec<Pem>),
}

/// Sets a workload up: key generation, randomizer-pool precompute and
/// shard formation.
///
/// # Errors
///
/// Set-up failures of the program, as text.
pub fn setup(spec: &Spec, inputs: &Inputs, seed: u64) -> Result<State, String> {
    let cfg = spec.pem_config(seed);
    match spec.kind {
        Kind::Paper1024 | Kind::Paper2048Wide => Pem::new(cfg, spec.homes)
            .map(|pem| State::Single(Box::new(pem)))
            .map_err(|e| e.to_string()),
        Kind::GridFast => {
            let mut grid = GridOrchestrator::new(GridConfig {
                pem: cfg,
                coalition_size: spec.coalition,
                workers: spec.workers(),
                engine: Engine::Threads,
                strategy: PartitionStrategy::SurplusBalanced,
                coupling: Some(CouplingConfig::fast_test()),
                retry: RetryPolicy {
                    max_attempts: 1,
                    backoff_ms: 0,
                },
            })
            .map_err(|e| e.to_string())?;
            grid.form_shards(&inputs.population(inputs.anchor))
                .map_err(|e| e.to_string())?;
            let formed = grid.plan().map(|p| p.shards().to_vec());
            if formed.as_deref() != Some(inputs.coalitions.as_slice()) {
                return Err("grid formed other coalitions than the benchmark's plan".into());
            }
            Ok(State::Grid(Box::new(grid)))
        }
        Kind::FabricMultiplex => inputs
            .coalitions
            .iter()
            .enumerate()
            .map(|(idx, members)| {
                let mut cfg = cfg.clone();
                cfg.seed = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(idx as u64 + 1);
                Pem::new(cfg, members.len()).map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()
            .map(State::Fabric),
    }
}

/// What a traced window adds beyond outcomes.
#[derive(Debug, Default)]
pub struct Probe {
    /// Transport probe of each `paper-*` window.
    pub nets: Vec<NetProbe>,
    /// Duration of every executor poll (`fabric-multiplex`).
    pub polls: Vec<Duration>,
    /// Executor counters summed over windows: polls, stalls.
    pub executor_polls: u64,
    /// Scheduling visits to tasks that were not ready.
    pub executor_stalls: u64,
    /// Largest residency over windows.
    pub executor_peak_resident: usize,
    /// Σ coalition protocol time (`grid-fast`).
    pub coalition_busy: Duration,
    /// Σ workers × window wall time (`grid-fast`).
    pub worker_capacity: Duration,
}

/// One coalition window as the benchmark saw it.
pub struct CoalitionRun {
    /// Member indices into the population.
    pub members: Vec<usize>,
    /// The settled outcome, or why there is none.
    pub result: Result<PemWindowOutcome, String>,
}

/// One trading window of the whole population.
pub struct WindowRun {
    /// From the call that starts it until every outcome is back.
    pub wall: Duration,
    /// Per coalition, in coalition order.
    pub coalitions: Vec<CoalitionRun>,
}

/// Runs one trading window. With a probe, the window runs through the
/// benchmark's measuring wrappers.
pub fn run_window(
    state: &mut State,
    inputs: &Inputs,
    population: &[AgentWindow],
    probe: Option<&mut Probe>,
) -> WindowRun {
    let start = Instant::now();
    match state {
        State::Single(pem) => {
            let mut net = SimNetwork::with_latency(population.len(), LatencyModel::lan());
            let result = match probe {
                None => pem.run_window_on(&mut net, population),
                Some(probe) => {
                    let mut net = TimingTransport::new(net);
                    let result = pem.run_window_on(&mut net, population);
                    probe.nets.push(net.finish());
                    result
                }
            };
            WindowRun {
                wall: start.elapsed(),
                coalitions: vec![CoalitionRun {
                    members: (0..population.len()).collect(),
                    result: result.map_err(|e| e.to_string()),
                }],
            }
        }
        State::Grid(grid) => {
            let report = grid.run_window(population);
            let wall = start.elapsed();
            let coalitions = match report {
                Err(e) => inputs
                    .coalitions
                    .iter()
                    .map(|members| CoalitionRun {
                        members: members.clone(),
                        result: Err(e.to_string()),
                    })
                    .collect(),
                Ok(report) => {
                    if let Some(probe) = probe {
                        probe.coalition_busy += report
                            .shard_outcomes
                            .iter()
                            .map(|s| s.outcome.metrics.total_elapsed())
                            .sum::<Duration>();
                        probe.worker_capacity += wall * grid.config().workers as u32;
                    }
                    let mut outcomes = report.shard_outcomes.into_iter().peekable();
                    report
                        .statuses
                        .iter()
                        .zip(&inputs.coalitions)
                        .enumerate()
                        .map(|(idx, (status, members))| {
                            let outcome = outcomes.next_if(|s| s.shard == idx);
                            let result = match (status, outcome) {
                                (CoalitionStatus::Cleared, Some(s)) => Ok(s.outcome),
                                (status, _) => Err(format!("coalition ended {status:?}")),
                            };
                            CoalitionRun {
                                members: members.clone(),
                                result,
                            }
                        })
                        .collect()
                }
            };
            WindowRun { wall, coalitions }
        }
        State::Fabric(pems) => {
            let data: Vec<Vec<AgentWindow>> = inputs
                .coalitions
                .iter()
                .map(|members| members.iter().map(|&i| population[i]).collect())
                .collect();
            let mut results: Vec<Option<Result<PemWindowOutcome, String>>> =
                data.iter().map(|_| None).collect();
            let mut tasks = Vec::with_capacity(pems.len());
            let mut positions = Vec::with_capacity(pems.len());
            for (pos, (pem, data)) in pems.iter_mut().zip(&data).enumerate() {
                match pem.fabric_window(data) {
                    Ok(task) => {
                        tasks.push(task);
                        positions.push(pos);
                    }
                    Err(e) => results[pos] = Some(Err(e.to_string())),
                }
            }
            let executor = Executor::new(FABRIC_BATCH);
            let outs: Vec<Result<PemWindowOutcome, String>> = match probe {
                None => {
                    let (outs, _) = executor.run_collect(tasks);
                    outs.into_iter()
                        .map(|r| r.map_err(|e| e.to_string()))
                        .collect()
                }
                Some(probe) => {
                    let timed = tasks.into_iter().map(TimedTask::new).collect();
                    let (outs, report) = executor.run_collect(timed);
                    probe.executor_polls += report.polls;
                    probe.executor_stalls += report.stalls;
                    probe.executor_peak_resident =
                        probe.executor_peak_resident.max(report.peak_resident);
                    outs.into_iter()
                        .map(|r| match r {
                            Ok((outcome, polls)) => {
                                probe.polls.extend(polls);
                                Ok(outcome)
                            }
                            Err(e) => Err(e.to_string()),
                        })
                        .collect()
                }
            };
            let wall = start.elapsed();
            for (pos, out) in positions.into_iter().zip(outs) {
                results[pos] = Some(out);
            }
            WindowRun {
                wall,
                coalitions: inputs
                    .coalitions
                    .iter()
                    .zip(results)
                    .map(|(members, result)| CoalitionRun {
                        members: members.clone(),
                        result: result.unwrap_or_else(|| Err("task never resolved".into())),
                    })
                    .collect(),
            }
        }
    }
}
