//! The three workloads: how each federation is built from the seed, and
//! how one *episode* — a fixed-horizon federation started from θ₀ — is
//! driven and timed round by round.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use subfed_core::algorithms::{SubFedAvgHy, SubFedAvgUn};
use subfed_core::presets::DatasetKind;
use subfed_core::{FedConfig, FederatedAlgorithm, Federation, ScaledSubFedAvg};
use subfed_data::{ClientData, SynthClientProvider, SynthProviderConfig, SynthVision};
use subfed_metrics::sync::lock_unpoisoned;
use subfed_metrics::trace::{self, Sink, TraceEvent, Tracer};
use subfed_pruning::{HybridController, UnstructuredController};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `ScaledSubFedAvg`, 100 000 registered MNIST* clients, cohort 1000.
    Registry100k,
    /// `SubFedAvgUn`, 20 materialized CIFAR-10* clients, target 70 %.
    ClassicUn,
    /// `SubFedAvgHy`, the same federation, 50 % channels + 70 % FC weights.
    ClassicHy,
}

/// Fixed shape of a workload's runs.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Rounds per episode (`FedConfig::rounds`).
    pub horizon: usize,
    pub eval_every: usize,
    /// Distinct federations per cycle, seeded from `--seed`. Every run
    /// measures whole cycles, so the mix of rounds is the same on every
    /// host.
    pub federations: usize,
    /// Lowest acceptable mean `final_acc`; below it the run is incorrect.
    pub acc_floor: f64,
    /// The round whose state the traced run captures and replays.
    pub replay_round: usize,
    /// Rounds re-run at one worker to check thread-count independence.
    pub w1_rounds: usize,
}

/// Measured rounds below which `round_ms.tail` has no qualifying
/// percentile (see [`crate::stats::tail`]).
pub const MIN_ROUNDS: usize = crate::stats::TAIL_BEYOND + 1;

/// Worker threads of every measured run (the reference host has two
/// cores).
pub const WORKERS: usize = 2;

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::Registry100k, Workload::ClassicUn, Workload::ClassicHy];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Registry100k => "registry-100k",
            Workload::ClassicUn => "classic-un",
            Workload::ClassicHy => "classic-hy",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn plan(self) -> Plan {
        match self {
            // Two local epochs: with one, θ^fe = θ^le, every gate holds
            // as mask-stable and the registry write path never runs.
            // Twelve rounds let the cohort accuracy settle, so
            // `final_acc` depends little on the seed.
            Workload::Registry100k => Plan {
                horizon: 12,
                eval_every: 6,
                federations: 1,
                acc_floor: 0.70,
                replay_round: 11,
                w1_rounds: 1,
            },
            // Forty rounds take the masks to their ~74 % steady state.
            Workload::ClassicUn => Plan {
                horizon: 40,
                eval_every: 5,
                federations: 4,
                acc_floor: 0.90,
                replay_round: 39,
                w1_rounds: 40,
            },
            Workload::ClassicHy => Plan {
                horizon: 40,
                eval_every: 5,
                federations: 4,
                acc_floor: 0.75,
                replay_round: 39,
                w1_rounds: 40,
            },
        }
    }

    /// The model architecture of this workload.
    pub fn dataset(self) -> DatasetKind {
        match self {
            Workload::Registry100k => DatasetKind::Mnist,
            Workload::ClassicUn | Workload::ClassicHy => DatasetKind::Cifar10,
        }
    }
}

/// Seed of the `k`-th federation of a run (SplitMix64 of the run seed).
pub fn federation_seed(seed: u64, k: usize) -> u64 {
    let mut z = seed.wrapping_add((k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Records when each round ends, with its model hash: the round clock of
/// drivers that expose no per-round entry point (`SubFedAvgHy::run`).
#[derive(Debug, Default)]
pub struct RoundClock {
    ends: Mutex<Vec<(Instant, u64)>>,
}

impl Sink for RoundClock {
    fn record(&self, _seq: u64, event: &TraceEvent) {
        if let TraceEvent::RoundEnd { model_hash, .. } = event {
            let now = Instant::now();
            lock_unpoisoned(&self.ends).push((now, *model_hash));
        }
    }
}

impl RoundClock {
    fn take(&self) -> Vec<(Instant, u64)> {
        std::mem::take(&mut *lock_unpoisoned(&self.ends))
    }
}

/// The controllers, mirroring the `subfed` CLI's settings.
pub fn un_controller(target: f32) -> UnstructuredController {
    let mut c = UnstructuredController::paper_defaults(target);
    c.rate = 0.2;
    c.acc_threshold = 0.3;
    c
}

pub fn hy_controller() -> HybridController {
    let mut c = HybridController::paper_defaults(0.5, 0.7);
    c.structured_rate = 0.2;
    c.unstructured.rate = 0.2;
    c.acc_threshold = 0.3;
    c.unstructured.acc_threshold = 0.3;
    c
}

/// The shard layout of the registry workload's on-demand provider
/// (12 training samples per client).
pub fn provider_config(seed: u64) -> SynthProviderConfig {
    SynthProviderConfig {
        num_clients: 100_000,
        labels_per_client: 2,
        train_per_label: 6,
        val_per_label: 3,
        test_per_label: 3,
        seed,
    }
}

/// The federation configuration of a workload at `threads` workers.
pub fn fed_config(w: Workload, seed: u64, threads: usize) -> FedConfig {
    let plan = w.plan();
    let (sample_frac, local_epochs) = match w {
        Workload::Registry100k => (0.01, 2),
        Workload::ClassicUn | Workload::ClassicHy => (0.5, 3),
    };
    FedConfig {
        rounds: plan.horizon,
        sample_frac,
        local_epochs,
        eval_every: plan.eval_every,
        threads,
        seed,
        ..FedConfig::default()
    }
}

/// The classic workloads' clients: 20 pathological CIFAR-10* shards.
pub fn classic_clients(seed: u64) -> Vec<ClientData> {
    DatasetKind::Cifar10.clients(20, seed)
}

/// A freshly set-up driver.
pub enum Driver {
    Scaled(ScaledSubFedAvg),
    Un(SubFedAvgUn, Federation),
    Hy(SubFedAvgHy, Federation, Arc<RoundClock>),
}

/// Builds the federation, data, model and (for the registry workload)
/// the client registry. This is what `setup_s` times. `sink`, when
/// given, receives the program's trace events. Classic-hy always gets a
/// [`RoundClock`] as well, because its driver has no per-round entry
/// point to time from outside.
pub fn setup(w: Workload, seed: u64, threads: usize, sink: Option<Arc<dyn Sink>>) -> Driver {
    let config = fed_config(w, seed, threads);
    let clock = Arc::new(RoundClock::default());
    let mut sinks: Vec<Arc<dyn Sink>> = sink.into_iter().collect();
    if w == Workload::ClassicHy {
        sinks.push(clock.clone());
    }
    let tracer = if sinks.is_empty() { Tracer::disabled() } else { Tracer::multi(sinks) };
    match w {
        Workload::Registry100k => {
            let synth = SynthVision::mnist_like(seed, 1);
            let provider = SynthClientProvider::new(synth, provider_config(seed));
            let fed = Federation::from_provider(w.dataset().spec(), Arc::new(provider), config)
                .with_tracer(tracer);
            Driver::Scaled(ScaledSubFedAvg::new(fed, un_controller(0.5)))
        }
        Workload::ClassicUn => {
            let fed = Federation::new(w.dataset().spec(), classic_clients(seed), config)
                .with_tracer(tracer);
            Driver::Un(SubFedAvgUn::with_controller(fed.clone(), un_controller(0.7)), fed)
        }
        Workload::ClassicHy => {
            let fed = Federation::new(w.dataset().spec(), classic_clients(seed), config)
                .with_tracer(tracer);
            Driver::Hy(SubFedAvgHy::with_controller(fed.clone(), hy_controller()), fed, clock)
        }
    }
}

/// One driven episode.
#[derive(Debug, Clone, Default)]
pub struct Episode {
    /// Wall time of each round, ms.
    pub round_ms: Vec<f64>,
    /// Sampled clients per round.
    pub sampled: Vec<usize>,
    /// Client updates completed per round (trained, pruned, uploaded,
    /// folded).
    pub completed: Vec<usize>,
    /// `model_hash` of θ_g after each round.
    pub hashes: Vec<u64>,
    /// Mean personalized test accuracy at the last evaluation round.
    pub final_acc: Option<f64>,
    /// Upload + download bytes of the episode.
    pub cum_bytes: u64,
}

impl Episode {
    pub fn clients(&self) -> usize {
        self.completed.iter().sum()
    }

    pub fn wall_ms(&self) -> f64 {
        self.round_ms.iter().sum()
    }
}

/// State handed to the capture hook before a round runs.
pub enum Before<'a> {
    Scaled(&'a ScaledSubFedAvg),
    Un(&'a SubFedAvgUn),
}

/// Drives `rounds` rounds (all of them for classic-hy, whose driver only
/// runs whole horizons), calling `before(round, state)` ahead of each
/// round on drivers that step.
pub fn run_episode(
    driver: &mut Driver,
    rounds: usize,
    mut before: impl FnMut(usize, Before<'_>),
) -> Episode {
    let mut ep = Episode::default();
    match driver {
        Driver::Scaled(d) => {
            for r in 1..=rounds {
                before(r, Before::Scaled(d));
                let t = Instant::now();
                d.step_round();
                ep.round_ms.push(t.elapsed().as_secs_f64() * 1e3);
                let rec = d.records().last().expect("a stepped round leaves a record");
                ep.sampled.push(rec.cohort);
                ep.completed.push(rec.survivors);
                ep.hashes.push(trace::model_hash(d.global()));
            }
            ep.final_acc = d.records().iter().rev().find_map(|r| r.avg_test_acc).map(f64::from);
            ep.cum_bytes = d.records().last().map_or(0, |r| r.cum_bytes);
        }
        Driver::Un(a, fed) => {
            let cohort = fed.config().clients_per_round(fed.num_clients());
            for r in 1..=rounds {
                if r > 1 {
                    before(r, Before::Un(a));
                }
                let t = Instant::now();
                a.step_round();
                ep.round_ms.push(t.elapsed().as_secs_f64() * 1e3);
                ep.sampled.push(cohort);
                ep.completed.push(fed.survivors(r, &fed.sample_round(r)).len());
                ep.hashes.push(trace::model_hash(&a.checkpoint().global));
            }
            // With every round run, `resume` steps nothing and returns the
            // history; a shorter episode has no final evaluation.
            if rounds >= fed.config().rounds {
                let history = a.resume();
                ep.final_acc = Some(f64::from(history.final_avg_acc()));
                ep.cum_bytes = history.total_bytes();
            }
        }
        Driver::Hy(a, fed, clock) => {
            let start = Instant::now();
            let history = a.run();
            let mut prev = start;
            for (end, hash) in clock.take() {
                ep.round_ms.push((end - prev).as_secs_f64() * 1e3);
                ep.hashes.push(hash);
                prev = end;
            }
            let cohort = fed.config().clients_per_round(fed.num_clients());
            for r in 1..=history.records.len() {
                ep.sampled.push(cohort);
                ep.completed.push(fed.survivors(r, &fed.sample_round(r)).len());
            }
            ep.final_acc = Some(f64::from(history.final_avg_acc()));
            ep.cum_bytes = history.total_bytes();
        }
    }
    ep
}
