//! Property-based tests of the NN substrate: serialization, masking, loss
//! geometry, and normalisation invariants.

use proptest::prelude::*;
use subfed_nn::loss::softmax_cross_entropy;
use subfed_nn::models::ModelSpec;
use subfed_nn::optim::Sgd;
use subfed_nn::{Mode, ModelMask, Sequential};
use subfed_tensor::init::{uniform, SeededRng};
use subfed_tensor::workspace::Workspace;
use subfed_tensor::Tensor;

fn spec_strategy() -> impl Strategy<Value = ModelSpec> {
    prop::sample::select(vec![
        ModelSpec::cnn5(1, 16, 16, 4),
        ModelSpec::cnn5(1, 16, 16, 10),
        ModelSpec::lenet5(1, 16, 16, 5),
        ModelSpec::lenet5(3, 16, 16, 10),
    ])
}

fn build(spec: ModelSpec, seed: u64) -> Sequential {
    spec.build(&mut SeededRng::new(seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn flatten_load_roundtrip(spec in spec_strategy(), seed in 0u64..1000) {
        let m = build(spec, seed);
        let flat = m.flatten();
        prop_assert_eq!(flat.len(), m.num_params());
        let mut other = build(spec, seed ^ 0xFFFF);
        other.load_flat(&flat);
        prop_assert_eq!(other.flatten(), flat);
    }

    #[test]
    fn metas_tile_the_flat_vector(spec in spec_strategy(), seed in 0u64..1000) {
        let m = build(spec, seed);
        let metas = m.metas();
        let mut expected_offset = 0;
        for meta in &metas {
            prop_assert_eq!(meta.offset, expected_offset);
            prop_assert_eq!(meta.len, meta.shape.iter().product::<usize>());
            expected_offset += meta.len;
        }
        prop_assert_eq!(expected_offset, m.num_params());
    }

    #[test]
    fn forward_is_deterministic_in_eval(spec in spec_strategy(), seed in 0u64..1000) {
        let mut ws = Workspace::new();
        let mut m = build(spec, seed);
        let [c, h, w] = spec.input_shape();
        let mut rng = SeededRng::new(seed ^ 3);
        let x = uniform(&[2, c, h, w], -1.0, 1.0, &mut rng);
        let y1 = m.forward_ws(&x, Mode::Eval, &mut ws);
        let y2 = m.forward_ws(&x, Mode::Eval, &mut ws);
        prop_assert_eq!(y1.data(), y2.data());
        prop_assert_eq!(y1.shape(), &[2, spec.classes()][..]);
        prop_assert!(y1.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn masked_step_preserves_zeros(
        spec in spec_strategy(),
        seed in 0u64..1000,
        keep_prob in 0.2f32..0.9,
    ) {
        let mut ws = Workspace::new();
        let mut m = build(spec, seed);
        let mut mask = ModelMask::ones_for(&m);
        let mut rng = SeededRng::new(seed ^ 5);
        let kinds = mask.kinds().to_vec();
        for (t, kind) in mask.tensors_mut().iter_mut().zip(kinds) {
            if kind.is_prunable_weight() {
                for v in t.data_mut() {
                    if rng.uniform_f32(0.0, 1.0) > keep_prob {
                        *v = 0.0;
                    }
                }
            }
        }
        mask.apply(&mut m);
        let [c, h, w] = spec.input_shape();
        let x = uniform(&[4, c, h, w], -1.0, 1.0, &mut rng);
        let labels: Vec<usize> = (0..4).map(|i| i % spec.classes()).collect();
        let mut opt = Sgd::new(0.05, 0.5);
        for _ in 0..2 {
            let logits = m.forward_ws(&x, Mode::Train, &mut ws);
            let (_, grad) = softmax_cross_entropy(&logits, &labels);
            m.backward_ws(&grad, &mut ws);
            opt.step(&mut m, Some(&mask), None);
        }
        for (p, t) in m.params().iter().zip(mask.tensors()) {
            for (&w, &mk) in p.value.data().iter().zip(t.data()) {
                if mk == 0.0 {
                    prop_assert_eq!(w, 0.0, "masked weight moved in {:?}", p.kind);
                }
            }
        }
    }

    #[test]
    fn training_mode_batchnorm_normalises_any_input(
        seed in 0u64..1000,
        scale in 0.5f32..20.0,
        offset in -10.0f32..10.0,
    ) {
        use subfed_nn::layers::BatchNorm2d;
        use subfed_nn::Layer as _;
        let mut ws = Workspace::new();
        let mut bn = BatchNorm2d::new(2);
        let mut rng = SeededRng::new(seed);
        let x = uniform(&[4, 2, 4, 4], -1.0, 1.0, &mut rng)
            .scale(scale)
            .add_scalar(offset);
        let y = bn.forward_ws(&x, Mode::Train, &mut ws);
        // Output statistics are unit regardless of the input affine.
        let plane = 16;
        for ch in 0..2 {
            let mut vals = Vec::new();
            for i in 0..4 {
                let base = (i * 2 + ch) * plane;
                vals.extend_from_slice(&y.data()[base..base + plane]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            prop_assert!(mean.abs() < 1e-3, "mean {mean}");
            prop_assert!((var - 1.0).abs() < 0.05, "var {var}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cross_entropy_is_nonnegative_with_zero_sum_grad_rows(
        logits in prop::collection::vec(-30.0f32..30.0, 12),
        labels in prop::collection::vec(0usize..4, 3),
    ) {
        let t = Tensor::from_vec(vec![3, 4], logits).unwrap();
        let (loss, grad) = softmax_cross_entropy(&t, &labels);
        prop_assert!(loss >= -1e-6, "negative loss {loss}");
        prop_assert!(loss.is_finite());
        for r in 0..3 {
            let s: f32 = grad.data()[r * 4..(r + 1) * 4].iter().sum();
            prop_assert!(s.abs() < 1e-5, "grad row {r} sums to {s}");
        }
    }

    #[test]
    fn cross_entropy_is_minimised_at_the_true_label(
        base in prop::collection::vec(-2.0f32..2.0, 5),
        label in 0usize..5,
        boost in 1.0f32..20.0,
    ) {
        let plain = Tensor::from_vec(vec![1, 5], base.clone()).unwrap();
        let (l_plain, _) = softmax_cross_entropy(&plain, &[label]);
        let mut boosted = base;
        boosted[label] += boost;
        let t = Tensor::from_vec(vec![1, 5], boosted).unwrap();
        let (l_boost, _) = softmax_cross_entropy(&t, &[label]);
        prop_assert!(l_boost <= l_plain + 1e-5,
            "raising the true logit must not raise the loss");
    }
}
