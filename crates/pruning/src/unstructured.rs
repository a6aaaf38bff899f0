//! Unstructured magnitude pruning (Algorithm 1's mask derivation).
//!
//! Given the current mask, the next mask zeroes the lowest `rate` fraction
//! (by absolute weight) of the *currently kept* prunable weights, so pruning
//! compounds geometrically toward the target: after `n` steps at rate `r`
//! the kept fraction is `(1-r)ⁿ`. Biases and BatchNorm parameters are never
//! pruned (matching the reference implementation).
//!
//! A step needs only the *set* of lowest-magnitude kept weights, not their
//! order, so the ranking selects (`select_nth_unstable_by`, expected O(n))
//! rather than sorts. Ties break by position, which picks exactly the set
//! a stable sort by `|w|` would. The ranking reads one weight slice per
//! mask tensor, taken either from a model ([`magnitude_mask`]) or from a
//! flat snapshot (`UnstructuredController::step_explained_flat`), so
//! callers holding flattened weights need not rebuild a model.

use serde::{Deserialize, Serialize};
use subfed_nn::{is_kept, ModelMask, ParamKind, Sequential};

/// Which weights unstructured pruning may remove.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PruneScope {
    /// All conv and FC kernels — Sub-FedAvg (Un).
    AllWeights,
    /// FC kernels only — the unstructured half of Sub-FedAvg (Hy).
    FcOnly,
}

impl PruneScope {
    /// Whether `kind` falls inside this scope.
    pub fn includes(self, kind: ParamKind) -> bool {
        match self {
            PruneScope::AllWeights => kind.is_prunable_weight(),
            PruneScope::FcOnly => kind == ParamKind::FcWeight,
        }
    }
}

/// How weights are ranked for removal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Ranking {
    /// Rank within each parameter tensor independently (the reference
    /// implementation's behaviour).
    LayerWise,
    /// Rank across all in-scope weights jointly (ablation).
    Global,
}

/// Derives the next unstructured mask: prunes the lowest `rate` fraction of
/// the currently kept in-scope weights of `model`.
///
/// Returns a mask that is a subset of `current` (monotone shrink). At least
/// one weight per tensor survives layer-wise ranking; global ranking keeps
/// at least one weight overall.
///
/// # Panics
///
/// Panics if `rate` is outside `[0, 1)` or `current` does not match the
/// model layout.
pub fn magnitude_mask(
    model: &Sequential,
    current: &ModelMask,
    rate: f32,
    scope: PruneScope,
    ranking: Ranking,
) -> ModelMask {
    rank(&model_slices(model), current, rate, scope, ranking)
}

/// One weight slice per parameter tensor of `model`, in mask order.
pub(crate) fn model_slices(model: &Sequential) -> Vec<&[f32]> {
    model.params().into_iter().map(|p| p.value.data()).collect()
}

/// `flat` cut into one slice per tensor of `layout`.
///
/// # Panics
///
/// Panics if `flat` does not hold exactly the layout's entry count.
pub(crate) fn flat_slices<'a>(flat: &'a [f32], layout: &ModelMask) -> Vec<&'a [f32]> {
    assert_eq!(flat.len(), layout.total_count(|_| true), "flat snapshot does not match mask");
    let mut rest = flat;
    layout
        .tensors()
        .iter()
        .map(|t| {
            let (head, tail) = rest.split_at(t.len());
            rest = tail;
            head
        })
        .collect()
}

/// The ranking behind every entry point: `weights` holds one slice per
/// tensor of `current`, in the same order.
pub(crate) fn rank(
    weights: &[&[f32]],
    current: &ModelMask,
    rate: f32,
    scope: PruneScope,
    ranking: Ranking,
) -> ModelMask {
    assert!((0.0..1.0).contains(&rate), "prune rate must be in [0, 1), got {rate}");
    assert_eq!(weights.len(), current.tensors().len(), "mask does not match model");
    let mut next = current.clone();
    let in_scope = weights
        .iter()
        .zip(next.tensors_mut())
        .zip(current.kinds())
        .filter(|(_, &kind)| scope.includes(kind))
        .map(|((&w, m), _)| {
            assert_eq!(w.len(), m.len(), "mask does not match model");
            (w, m.data_mut())
        });
    match ranking {
        Ranking::LayerWise => {
            let mut kept = Vec::new();
            for (w, m) in in_scope {
                prune_lowest(w, m, rate, &mut kept);
            }
        }
        Ranking::Global => {
            let mut tensors: Vec<(&[f32], &mut [f32])> = in_scope.collect();
            // (|w|, (in-scope tensor, offset)) of all kept in-scope weights.
            let mut kept: Vec<(f32, (usize, usize))> = Vec::new();
            for (t, (w, m)) in tensors.iter().enumerate() {
                for (j, (&w, &m)) in w.iter().zip(m.iter()).enumerate() {
                    if is_kept(m) {
                        kept.push((w.abs(), (t, j)));
                    }
                }
            }
            let n_prune = prune_count(kept.len(), rate);
            for &(_, (t, j)) in select_lowest(&mut kept, n_prune) {
                if let Some(entry) = tensors.get_mut(t).and_then(|(_, m)| m.get_mut(j)) {
                    *entry = 0.0;
                }
            }
        }
    }
    next
}

/// Zeroes the lowest-`rate` fraction (by |w|) of the kept entries of one
/// tensor's mask, keeping at least one entry. `kept` is scratch reused
/// across tensors.
fn prune_lowest(weights: &[f32], mask: &mut [f32], rate: f32, kept: &mut Vec<(f32, usize)>) {
    kept.clear();
    kept.extend(
        weights
            .iter()
            .zip(mask.iter())
            .enumerate()
            .filter(|(_, (_, &m))| is_kept(m))
            .map(|(j, (&w, _))| (w.abs(), j)),
    );
    let n_prune = prune_count(kept.len(), rate);
    for &(_, j) in select_lowest(kept, n_prune) {
        if let Some(entry) = mask.get_mut(j) {
            *entry = 0.0;
        }
    }
}

/// How many of `kept` weights one step at `rate` removes: `⌊kept · rate⌋`,
/// leaving at least one.
fn prune_count(kept: usize, rate: f32) -> usize {
    ((kept as f32 * rate).floor() as usize).min(kept.saturating_sub(1))
}

/// Moves the `n ≤ kept.len()` smallest entries of `kept` to its front and
/// returns them, ordered by `(|w|, position)` under `total_cmp`. Positions
/// are unique, so this is exactly the set a stable sort by `|w|` puts
/// first, found in expected O(len) instead of O(len log len).
fn select_lowest<P: Ord>(kept: &mut [(f32, P)], n: usize) -> &[(f32, P)] {
    if let Some(last) = n.checked_sub(1) {
        kept.select_nth_unstable_by(last, |a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    }
    &kept[..n]
}

/// Fraction of in-scope weights pruned under `mask`.
pub fn pruned_fraction(mask: &ModelMask, scope: PruneScope) -> f32 {
    mask.pruned_fraction(|k| scope.includes(k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use subfed_nn::models::ModelSpec;
    use subfed_tensor::init::SeededRng;

    fn model() -> Sequential {
        ModelSpec::cnn5(1, 16, 16, 4).build(&mut SeededRng::new(9))
    }

    /// The ranking before selection replaced sorting, kept as the oracle:
    /// a full stable sort of the kept weights by `|w|` under `total_cmp`.
    fn magnitude_mask_sorted(
        model: &Sequential,
        current: &ModelMask,
        rate: f32,
        scope: PruneScope,
        ranking: Ranking,
    ) -> ModelMask {
        let params = model.params();
        let mut next = current.clone();
        match ranking {
            Ranking::LayerWise => {
                for (i, p) in params.iter().enumerate() {
                    if scope.includes(p.kind) {
                        prune_lowest_sorted(p.value.data(), next.tensors_mut()[i].data_mut(), rate);
                    }
                }
            }
            Ranking::Global => {
                let mut kept: Vec<(f32, usize, usize)> = Vec::new();
                for (i, p) in params.iter().enumerate() {
                    if !scope.includes(p.kind) {
                        continue;
                    }
                    for (j, (&w, &m)) in
                        p.value.data().iter().zip(current.tensors()[i].data()).enumerate()
                    {
                        if is_kept(m) {
                            kept.push((w.abs(), i, j));
                        }
                    }
                }
                let n_prune =
                    ((kept.len() as f32 * rate).floor() as usize).min(kept.len().saturating_sub(1));
                kept.sort_by(|a, b| a.0.total_cmp(&b.0));
                for &(_, i, j) in kept.iter().take(n_prune) {
                    next.tensors_mut()[i].data_mut()[j] = 0.0;
                }
            }
        }
        next
    }

    fn prune_lowest_sorted(weights: &[f32], mask: &mut [f32], rate: f32) {
        let mut kept: Vec<(f32, usize)> = weights
            .iter()
            .zip(mask.iter())
            .enumerate()
            .filter(|(_, (_, &m))| is_kept(m))
            .map(|(j, (&w, _))| (w.abs(), j))
            .collect();
        if kept.is_empty() {
            return;
        }
        let n_prune = ((kept.len() as f32 * rate).floor() as usize).min(kept.len() - 1);
        kept.sort_by(|a, b| a.0.total_cmp(&b.0));
        for &(_, j) in kept.iter().take(n_prune) {
            mask[j] = 0.0;
        }
    }

    /// `n` weights dense in ties: ±0.0, equal magnitudes of opposite sign
    /// and NaNs of both signs, mixed with uniform values.
    fn tied_weights(n: usize, seed: u64, tie_share: f32, nan_share: f32) -> Vec<f32> {
        const PALETTE: [f32; 7] = [0.0, -0.0, 0.25, -0.25, 0.5, -0.5, 1e-30];
        let mut rng = SeededRng::new(seed);
        (0..n)
            .map(|_| {
                let u = rng.uniform_f32(0.0, 1.0);
                let pick = rng.uniform_f32(0.0, 1.0);
                if u < nan_share {
                    if pick < 0.5 {
                        f32::NAN
                    } else {
                        -f32::NAN
                    }
                } else if u < nan_share + tie_share {
                    PALETTE[((pick * PALETTE.len() as f32) as usize).min(PALETTE.len() - 1)]
                } else {
                    rng.uniform_f32(-1.0, 1.0)
                }
            })
            .collect()
    }

    /// An all-ones mask with each entry then kept with probability `keep`.
    fn random_mask(m: &Sequential, keep: f32, seed: u64) -> ModelMask {
        let mut rng = SeededRng::new(seed);
        let mut mask = ModelMask::ones_for(m);
        for t in mask.tensors_mut() {
            for v in t.data_mut() {
                if rng.uniform_f32(0.0, 1.0) >= keep {
                    *v = 0.0;
                }
            }
        }
        mask
    }

    fn bits(mask: &ModelMask) -> Vec<u32> {
        mask.tensors().iter().flat_map(|t| t.data().iter().map(|v| v.to_bits())).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn selection_matches_the_stable_sort_oracle(
            seed in 0u64..1_000_000,
            tie_share in prop::sample::select(vec![0.0f32, 0.5, 1.0]),
            nan_share in prop::sample::select(vec![0.0f32, 0.05]),
            keep in prop::sample::select(vec![1.0f32, 0.6, 0.05, 0.0]),
        ) {
            let mut m = model();
            let flat = tied_weights(m.num_params(), seed, tie_share, nan_share);
            m.load_flat(&flat);
            let current = random_mask(&m, keep, seed ^ 0x5eed);
            for rate in [0.0, 1e-3, 0.2, 0.99] {
                for scope in [PruneScope::AllWeights, PruneScope::FcOnly] {
                    for ranking in [Ranking::LayerWise, Ranking::Global] {
                        let want = bits(&magnitude_mask_sorted(&m, &current, rate, scope, ranking));
                        let got = bits(&magnitude_mask(&m, &current, rate, scope, ranking));
                        prop_assert_eq!(&got, &want, "model entry, {:?} {:?} {}", scope, ranking, rate);
                        let slices = flat_slices(&flat, &current);
                        let got = bits(&rank(&slices, &current, rate, scope, ranking));
                        prop_assert_eq!(&got, &want, "flat entry, {:?} {:?} {}", scope, ranking, rate);
                    }
                }
            }
        }
    }

    #[test]
    fn ties_break_by_position_and_nan_ranks_last() {
        // Sorted by (|w|, position): +0.0@2, -0.0@3, 0.1@5, -0.5@0, 0.5@1,
        // NaN@4 — signs never matter, NaN is the largest magnitude.
        let weights = [-0.5, 0.5, 0.0, -0.0, f32::NAN, 0.1];
        let mut kept = Vec::new();
        for (rate, want) in [
            (0.5, [1.0, 1.0, 0.0, 0.0, 1.0, 0.0]),
            (0.7, [0.0, 1.0, 0.0, 0.0, 1.0, 0.0]),
            (0.99, [0.0, 0.0, 0.0, 0.0, 1.0, 0.0]),
        ] {
            let mut mask = [1.0; 6];
            prune_lowest(&weights, &mut mask, rate, &mut kept);
            assert_eq!(mask, want, "rate {rate}");
        }
    }

    #[test]
    fn prunes_requested_fraction_layer_wise() {
        let m = model();
        let current = ModelMask::ones_for(&m);
        let next = magnitude_mask(&m, &current, 0.3, PruneScope::AllWeights, Ranking::LayerWise);
        let frac = pruned_fraction(&next, PruneScope::AllWeights);
        // floor() per tensor keeps it within one weight per tensor of 0.3.
        assert!((frac - 0.3).abs() < 0.01, "pruned {frac}");
        // Non-weights untouched.
        assert_eq!(next.pruned_fraction(|k| k == ParamKind::FcBias), 0.0);
        assert_eq!(next.pruned_fraction(|k| k == ParamKind::BnGamma), 0.0);
    }

    #[test]
    fn prunes_smallest_magnitudes_first() {
        let m = model();
        let current = ModelMask::ones_for(&m);
        let next = magnitude_mask(&m, &current, 0.5, PruneScope::AllWeights, Ranking::LayerWise);
        // In every prunable tensor the max pruned |w| <= min kept |w|.
        for (i, p) in m.params().iter().enumerate() {
            if !p.kind.is_prunable_weight() {
                continue;
            }
            let mut max_pruned = 0.0f32;
            let mut min_kept = f32::INFINITY;
            for (&w, &mk) in p.value.data().iter().zip(next.tensors()[i].data()) {
                if mk == 0.0 {
                    max_pruned = max_pruned.max(w.abs());
                } else {
                    min_kept = min_kept.min(w.abs());
                }
            }
            assert!(max_pruned <= min_kept + 1e-7, "{max_pruned} vs {min_kept}");
        }
    }

    #[test]
    fn shrink_is_monotone() {
        let m = model();
        let m1 = magnitude_mask(
            &m,
            &ModelMask::ones_for(&m),
            0.2,
            PruneScope::AllWeights,
            Ranking::LayerWise,
        );
        let m2 = magnitude_mask(&m, &m1, 0.2, PruneScope::AllWeights, Ranking::LayerWise);
        for (a, b) in m1.tensors().iter().zip(m2.tensors()) {
            for (&x, &y) in a.data().iter().zip(b.data()) {
                assert!(y <= x, "mask grew back");
            }
        }
        // Compounding: (1-0.2)^2 = 0.64 kept.
        let frac = pruned_fraction(&m2, PruneScope::AllWeights);
        assert!((frac - 0.36).abs() < 0.02, "pruned {frac}");
    }

    #[test]
    fn fc_only_scope_leaves_conv_untouched() {
        let m = model();
        let next = magnitude_mask(
            &m,
            &ModelMask::ones_for(&m),
            0.5,
            PruneScope::FcOnly,
            Ranking::LayerWise,
        );
        assert_eq!(next.pruned_fraction(|k| k == ParamKind::ConvWeight), 0.0);
        let fc = next.pruned_fraction(|k| k == ParamKind::FcWeight);
        assert!((fc - 0.5).abs() < 0.01, "{fc}");
    }

    #[test]
    fn global_ranking_prunes_same_total_fraction() {
        let m = model();
        let next = magnitude_mask(
            &m,
            &ModelMask::ones_for(&m),
            0.4,
            PruneScope::AllWeights,
            Ranking::Global,
        );
        let frac = pruned_fraction(&next, PruneScope::AllWeights);
        assert!((frac - 0.4).abs() < 0.001, "{frac}");
        // Global threshold: every pruned weight <= every kept weight
        // across all tensors.
        let mut max_pruned = 0.0f32;
        let mut min_kept = f32::INFINITY;
        for (i, p) in m.params().iter().enumerate() {
            if !p.kind.is_prunable_weight() {
                continue;
            }
            for (&w, &mk) in p.value.data().iter().zip(next.tensors()[i].data()) {
                if mk == 0.0 {
                    max_pruned = max_pruned.max(w.abs());
                } else {
                    min_kept = min_kept.min(w.abs());
                }
            }
        }
        assert!(max_pruned <= min_kept + 1e-7);
    }

    #[test]
    fn zero_rate_is_identity() {
        let m = model();
        let current = ModelMask::ones_for(&m);
        let next = magnitude_mask(&m, &current, 0.0, PruneScope::AllWeights, Ranking::LayerWise);
        assert_eq!(next, current);
    }

    #[test]
    fn never_prunes_everything() {
        let m = model();
        let mut mask = ModelMask::ones_for(&m);
        for _ in 0..60 {
            mask = magnitude_mask(&m, &mask, 0.5, PruneScope::AllWeights, Ranking::LayerWise);
        }
        // At least one weight survives per prunable tensor.
        for (i, p) in m.params().iter().enumerate() {
            if p.kind.is_prunable_weight() {
                assert!(
                    mask.tensors()[i].data().iter().any(|&v| v != 0.0),
                    "tensor {i} fully pruned"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "prune rate must be in")]
    fn rate_one_rejected() {
        let m = model();
        let _ = magnitude_mask(
            &m,
            &ModelMask::ones_for(&m),
            1.0,
            PruneScope::AllWeights,
            Ranking::LayerWise,
        );
    }
}
