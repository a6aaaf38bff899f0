//! Golden per-round `model_hash` streams and final byte counts for small
//! runs: the registry-scale driver, classic Sub-FedAvg (Un) — with the
//! default engine and with the rewind/trim and plain-average/fresh-mask
//! ablations — and classic Sub-FedAvg (Hy). The classic runs are repeated
//! at 1, 2 and 3 workers against the same constants.
//!
//! The Un, Hy and scaled streams were recorded before the unstructured
//! prune step moved from a full sort over rebuilt models to selection over
//! flat snapshots; the ablation streams and the byte counts before the
//! three drivers moved onto one shared client pipeline. Any refactor of
//! the client pipeline must reproduce them bit for bit: the hash covers the
//! post-aggregation global, so a single mask entry chosen differently by
//! any client changes every later round, and the final `cum_bytes` covers
//! the download/upload accounting the hash does not see.

use std::sync::Arc;

use subfed_core::algorithms::{SubFedAvgHy, SubFedAvgOptions, SubFedAvgUn};
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
const UN_REWIND_TRIM_HASHES: [u64; 4] =
    [0x5106193e2a331805, 0x5106193e2a331805, 0xf0ab0c79c70943d2, 0xca1eb6194141431a];
const UN_PLAIN_FRESH_HASHES: [u64; 4] =
    [0x58de98fd9c621592, 0x24087031d6192139, 0x808508a2e4e3c4da, 0x8b300b4bfcf2c623];

/// Final `RoundEnd.cum_bytes` of each run above.
const SCALED_BYTES: u64 = 2_233_408;
const UN_BYTES: u64 = 492_704;
const HY_BYTES: u64 = 400_452;
const UN_REWIND_TRIM_BYTES: u64 = 492_704;
const UN_PLAIN_FRESH_BYTES: u64 = 586_848;

/// Worker counts every classic golden run is repeated at.
const THREADS: [usize; 3] = [1, 2, 3];

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

fn classic_federation(sink: &Arc<VecSink>, threads: usize) -> Federation {
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
            threads,
            ..Default::default()
        },
    )
    .with_tracer(Tracer::new(sink.clone()))
}

/// A traced run's `RoundEnd` hashes in round order, its final
/// `cum_bytes`, and the gate reasons seen.
struct Golden {
    hashes: Vec<u64>,
    cum_bytes: u64,
    reasons: Vec<String>,
}

fn golden(sink: &VecSink) -> Golden {
    let events = sink.snapshot();
    let mut ends: Vec<(usize, u64, u64)> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::RoundEnd { round, model_hash, cum_bytes, .. } => {
                Some((*round, *model_hash, *cum_bytes))
            }
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
    Golden {
        cum_bytes: ends.last().map_or(0, |&(_, _, b)| b),
        hashes: ends.into_iter().map(|(_, h, _)| h).collect(),
        reasons,
    }
}

fn assert_golden(name: &str, got: &Golden, hashes: &[u64], cum_bytes: u64) {
    let hex: Vec<String> = got.hashes.iter().map(|h| format!("0x{h:016x}")).collect();
    assert_eq!(got.hashes, hashes, "{name} model_hash stream changed; got [{}]", hex.join(", "));
    assert_eq!(got.cum_bytes, cum_bytes, "{name} final cum_bytes changed");
}

fn assert_reasons(name: &str, got: &Golden, want: &[&str]) {
    for reason in want {
        assert!(got.reasons.iter().any(|r| r == reason), "{name}: no `{reason}` gate");
    }
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
    let got = golden(&sink);
    assert_golden("scaled", &got, &SCALED_HASHES, SCALED_BYTES);
    // The run reaches the fired-gate -> registry write path, and holds
    // gates for both reasons decided before Δ.
    assert_reasons("scaled", &got, &["pruned", "acc-below-threshold", "target-reached"]);
    assert!(driver.registry().allocated_masks() > 0);
}

fn un_controller() -> UnstructuredController {
    let mut controller = UnstructuredController::paper_defaults(0.3);
    controller.acc_threshold = 0.0;
    controller.rate = 0.2;
    controller
}

/// Runs classic Sub-FedAvg (Un) with `options` at every worker count in
/// [`THREADS`], checking each run against the same golden constants.
fn check_classic_un(
    name: &str,
    options: SubFedAvgOptions,
    hashes: &[u64],
    cum_bytes: u64,
    reasons: &[&str],
) {
    for threads in THREADS {
        let sink = Arc::new(VecSink::new());
        let _ = SubFedAvgUn::with_controller(classic_federation(&sink, threads), un_controller())
            .with_options(options)
            .run();
        let got = golden(&sink);
        let name = format!("{name} ({threads} workers)");
        assert_golden(&name, &got, hashes, cum_bytes);
        assert_reasons(&name, &got, reasons);
    }
}

#[test]
fn classic_un_run_matches_golden_hashes() {
    let options = SubFedAvgOptions::default();
    check_classic_un("classic un", options, &UN_HASHES, UN_BYTES, &["pruned", "target-reached"]);
}

#[test]
fn classic_un_rewind_and_trim_match_golden_hashes() {
    let options = SubFedAvgOptions { rewind_to_init: true, trim: 1, ..Default::default() };
    let (hashes, bytes) = (&UN_REWIND_TRIM_HASHES, UN_REWIND_TRIM_BYTES);
    check_classic_un("classic un rewind+trim", options, hashes, bytes, &["pruned"]);
}

#[test]
fn classic_un_plain_average_and_fresh_masks_match_golden_hashes() {
    let options = SubFedAvgOptions { plain_average: true, fresh_masks: true, ..Default::default() };
    let (hashes, bytes) = (&UN_PLAIN_FRESH_HASHES, UN_PLAIN_FRESH_BYTES);
    check_classic_un("classic un plain+fresh", options, hashes, bytes, &["pruned"]);
}

#[test]
fn classic_hy_run_matches_golden_hashes() {
    for threads in THREADS {
        let sink = Arc::new(VecSink::new());
        let mut controller = HybridController::paper_defaults(0.4, 0.5);
        controller.acc_threshold = 0.0;
        controller.unstructured.acc_threshold = 0.0;
        controller.structured_rate = 0.2;
        controller.unstructured.rate = 0.2;
        let _ = SubFedAvgHy::with_controller(classic_federation(&sink, threads), controller).run();
        let got = golden(&sink);
        let name = format!("classic hy ({threads} workers)");
        assert_golden(&name, &got, &HY_HASHES, HY_BYTES);
        assert_reasons(&name, &got, &["pruned"]);
    }
}
