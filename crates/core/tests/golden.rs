//! Golden per-round `model_hash` streams for three small runs: the
//! registry-scale driver, classic Sub-FedAvg (Un) and classic Sub-FedAvg
//! (Hy).
//!
//! The streams were recorded before the unstructured prune step moved from
//! a full sort over rebuilt models to selection over flat snapshots. Any
//! refactor of the client pipeline must reproduce them bit for bit: the
//! hash covers the post-aggregation global, so a single mask entry chosen
//! differently by any client changes every later round.

use std::sync::Arc;

use subfed_core::algorithms::{SubFedAvgHy, SubFedAvgUn};
use subfed_core::{FedConfig, FederatedAlgorithm, Federation, ScaledSubFedAvg};
use subfed_data::{
    partition_pathological, PartitionConfig, SynthClientProvider, SynthConfig, SynthProviderConfig,
    SynthVision,
};
use subfed_metrics::trace::{TraceEvent, Tracer, VecSink};
use subfed_nn::models::ModelSpec;
use subfed_pruning::{HybridController, UnstructuredController};

const SCALED_HASHES: [u64; 4] =
    [0x9d5fa669d9965e3f, 0x52de288ef0167aa0, 0x6a950ee55ee57a1f, 0x7ae5922d4a8dba1c];
const UN_HASHES: [u64; 4] =
    [0x09d18986d568ea05, 0x4de7391b6f8236b2, 0xcdca4d5fa28bbb84, 0x4598f4033e218f16];
const HY_HASHES: [u64; 4] =
    [0xfcd7eb6b363c6ca1, 0x5a7ee36ab345607c, 0xdf3a1cab1aff7292, 0xaea20d5a8c0a20cc];

fn synth(train_per_class: usize, seed: u64) -> SynthVision {
    SynthVision::generate(SynthConfig {
        channels: 1,
        height: 16,
        width: 16,
        classes: 4,
        train_per_class,
        test_per_class: 6,
        noise_std: 0.1,
        shift: 1,
        grid: 4,
        seed,
    })
}

fn classic_federation(sink: &Arc<VecSink>) -> Federation {
    let data = synth(24, 9);
    let clients = partition_pathological(
        data.train(),
        data.test(),
        &PartitionConfig {
            num_clients: 4,
            shard_size: 12,
            shards_per_client: 2,
            val_fraction: 0.2,
            seed: 9,
        },
    );
    Federation::new(
        ModelSpec::cnn5(1, 16, 16, 4),
        clients,
        FedConfig {
            rounds: 4,
            sample_frac: 0.75,
            local_epochs: 2,
            eval_every: 2,
            seed: 9,
            threads: 2,
            ..Default::default()
        },
    )
    .with_tracer(Tracer::new(sink.clone()))
}

/// The run's `RoundEnd` hashes in round order, and the gate reasons seen.
fn hashes_and_reasons(sink: &VecSink) -> (Vec<u64>, Vec<String>) {
    let events = sink.snapshot();
    let mut ends: Vec<(usize, u64)> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::RoundEnd { round, model_hash, .. } => Some((*round, *model_hash)),
            _ => None,
        })
        .collect();
    ends.sort_unstable();
    let reasons = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::PruneGate { reason, .. } => Some(reason.clone()),
            _ => None,
        })
        .collect();
    (ends.into_iter().map(|(_, h)| h).collect(), reasons)
}

fn assert_stream(name: &str, got: &[u64], want: &[u64]) {
    let hex: Vec<String> = got.iter().map(|h| format!("0x{h:016x}")).collect();
    assert_eq!(got, want, "{name} model_hash stream changed; got [{}]", hex.join(", "));
}

#[test]
fn scaled_registry_run_matches_golden_hashes() {
    let provider = SynthClientProvider::new(
        synth(4, 11),
        SynthProviderConfig {
            num_clients: 30,
            labels_per_client: 2,
            train_per_label: 6,
            val_per_label: 3,
            test_per_label: 3,
            seed: 11,
        },
    );
    let config = FedConfig {
        rounds: 4,
        sample_frac: 0.4,
        local_epochs: 2,
        batch_size: 6,
        eval_every: 2,
        threads: 2,
        ..Default::default()
    };
    let sink = Arc::new(VecSink::new());
    let fed = Federation::from_provider(ModelSpec::cnn5(1, 16, 16, 4), Arc::new(provider), config)
        .with_tracer(Tracer::new(sink.clone()));
    let mut controller = UnstructuredController::paper_defaults(0.3);
    controller.acc_threshold = 0.6;
    controller.rate = 0.2;
    let mut driver = ScaledSubFedAvg::new(fed, controller);
    let _ = driver.run();
    let (hashes, reasons) = hashes_and_reasons(&sink);
    assert_stream("scaled", &hashes, &SCALED_HASHES);
    // The run reaches the fired-gate -> registry write path, and holds
    // gates for both reasons decided before Δ.
    for reason in ["pruned", "acc-below-threshold", "target-reached"] {
        assert!(reasons.iter().any(|r| r == reason), "no `{reason}` gate: {reasons:?}");
    }
    assert!(driver.registry().allocated_masks() > 0);
}

#[test]
fn classic_un_run_matches_golden_hashes() {
    let sink = Arc::new(VecSink::new());
    let mut controller = UnstructuredController::paper_defaults(0.3);
    controller.acc_threshold = 0.0;
    controller.rate = 0.2;
    let _ = SubFedAvgUn::with_controller(classic_federation(&sink), controller).run();
    let (hashes, reasons) = hashes_and_reasons(&sink);
    assert_stream("classic un", &hashes, &UN_HASHES);
    for reason in ["pruned", "target-reached"] {
        assert!(reasons.iter().any(|r| r == reason), "no `{reason}` gate: {reasons:?}");
    }
}

#[test]
fn classic_hy_run_matches_golden_hashes() {
    let sink = Arc::new(VecSink::new());
    let mut controller = HybridController::paper_defaults(0.4, 0.5);
    controller.acc_threshold = 0.0;
    controller.unstructured.acc_threshold = 0.0;
    controller.structured_rate = 0.2;
    controller.unstructured.rate = 0.2;
    let _ = SubFedAvgHy::with_controller(classic_federation(&sink), controller).run();
    let (hashes, reasons) = hashes_and_reasons(&sink);
    assert_stream("classic hy", &hashes, &HY_HASHES);
    assert!(reasons.iter().any(|r| r == "pruned"), "no gate fired: {reasons:?}");
}
