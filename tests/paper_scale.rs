//! Paper-scale configuration smoke tests.
//!
//! The benches run scaled-down federations for wall-clock reasons; these
//! tests prove the *paper-scale* path itself works — 28×28/32×32 inputs,
//! 100 clients, shards of 250 (§4.1), the real LeNet-5/CNN-5 parameter
//! counts — by building everything at full size and driving one client's
//! local update through it. Runtime, not capability, is the only thing
//! the scaled benches give up.

use sub_fedavg::core::{evaluate_accuracy, train_client_ws, FedConfig, Federation};
use sub_fedavg::data::{partition_pathological, PartitionConfig, SynthConfig, SynthVision};
use sub_fedavg::nn::models::ModelSpec;
use sub_fedavg::nn::Mode;
use sub_fedavg::pruning::{ModelMask, PruneScope, Ranking};
use sub_fedavg::tensor::workspace::Workspace;

/// A paper-scale MNIST stand-in: 1×28×28, 10 classes, enough examples for
/// 100 clients × 2 shards × 250 (§4.1's exact partition geometry).
fn paper_mnist() -> SynthVision {
    SynthVision::generate(SynthConfig {
        channels: 1,
        height: 28,
        width: 28,
        classes: 10,
        train_per_class: 5_000, // 50k examples -> 200 shards of 250
        test_per_class: 100,
        noise_std: 0.12,
        shift: 2,
        grid: 7,
        seed: 1,
    })
}

#[test]
fn paper_scale_partition_and_one_client_update() {
    let data = paper_mnist();
    assert_eq!(data.train().len(), 50_000);
    let clients = partition_pathological(
        data.train(),
        data.test(),
        &PartitionConfig {
            num_clients: 100,
            shard_size: 250,
            shards_per_client: 2,
            val_fraction: 0.1,
            seed: 1,
        },
    );
    assert_eq!(clients.len(), 100);
    for c in &clients {
        assert_eq!(c.train.len() + c.val.len(), 500);
        assert!((1..=2).contains(&c.labels.len()) || c.labels.len() <= 3);
    }

    // The paper's CNN-5 at its real size.
    let spec = ModelSpec::cnn5(1, 28, 28, 10);
    let fed = Federation::new(
        spec,
        clients,
        FedConfig {
            rounds: 1,
            sample_frac: 0.1, // the paper's 10 clients per round
            local_epochs: 1,
            eval_every: 1,
            seed: 1,
            ..Default::default()
        },
    );
    assert_eq!(fed.sample_round(1).len(), 10);

    // One full-scale local update: 500 examples, batch 10, one epoch.
    let global = fed.init_global();
    let out = train_client_ws(
        fed.spec(),
        &global,
        &fed.client_data(0),
        fed.config(),
        None,
        None,
        1,
        &mut Workspace::new(),
    );
    assert!(out.mean_train_loss.is_finite());
    assert_ne!(out.final_flat, global);

    // And a full-scale magnitude-pruning step over the real tensors.
    let mut model = fed.build_model();
    model.load_flat(&out.final_flat);
    let mask = sub_fedavg::pruning::unstructured::magnitude_mask(
        &model,
        &ModelMask::ones_for(&model),
        0.1,
        PruneScope::AllWeights,
        Ranking::LayerWise,
    );
    let frac = mask.pruned_fraction(|k| k.is_prunable_weight());
    assert!((frac - 0.1).abs() < 0.01, "pruned {frac}");
}

#[test]
fn paper_scale_lenet5_has_papers_parameter_count_and_runs() {
    // CIFAR-scale inputs: 3×32×32, LeNet-5 with the paper's ~62k params.
    let spec = ModelSpec::lenet5(3, 32, 32, 10);
    assert_eq!(spec.num_trainable(), 62_050);
    let data = SynthVision::generate(SynthConfig {
        channels: 3,
        height: 32,
        width: 32,
        classes: 10,
        train_per_class: 100,
        test_per_class: 20,
        noise_std: 0.25,
        shift: 2,
        grid: 6,
        seed: 2,
    });
    let clients = partition_pathological(
        data.train(),
        data.test(),
        &PartitionConfig {
            num_clients: 2,
            shard_size: 250,
            shards_per_client: 2,
            val_fraction: 0.1,
            seed: 2,
        },
    );
    let fed = Federation::new(
        spec,
        clients,
        FedConfig { rounds: 1, local_epochs: 1, seed: 2, ..Default::default() },
    );
    let global = fed.init_global();
    let mut model = fed.build_model();
    model.load_flat(&global);
    // Forward at full 32x32 resolution on a real batch.
    let batch = fed.client_data(0).train.batches(10).into_iter().next().unwrap();
    let logits = model.forward_ws(&batch.images, Mode::Eval, &mut Workspace::new());
    assert_eq!(logits.shape(), &[10, 10]);
    let acc = evaluate_accuracy(&mut model, &fed.client_data(0).val, 64);
    assert!((0.0..=1.0).contains(&acc));
}
