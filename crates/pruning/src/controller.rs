//! The pruning schedules of Algorithms 1 and 2: *when* a client prunes.
//!
//! Both algorithms derive a candidate mask at the end of the first local
//! epoch and another at the end of the last local epoch, then prune only if
//! all three gates pass:
//!
//! 1. validation accuracy ≥ `acc_threshold` (don't prune an unconverged
//!    model),
//! 2. the target pruning rate has not been reached yet,
//! 3. the Hamming distance Δ between the two candidate masks ≥ ε (the mask
//!    is still *moving* — once it stabilises below ε the subnetwork is
//!    considered found).
//!
//! The gates are checked in that order: accuracy, then target, then Δ. The
//! candidates, and so Δ, are computed only when the first two pass; a gate
//! held before that reports [`GateDecision::mask_distance`] as `None`.
//!
//! In the hybrid algorithm the structured and unstructured tracks are gated
//! independently (Algorithm 2, line 19: "if **any** of the conditions
//! Δ_s ≥ ε or Δ_us ≥ ε hold, apply its corresponding mask").

use crate::structured::{expand_channel_mask, slimming_mask, ChannelMask};
use crate::unstructured::{
    flat_slices, magnitude_mask, model_slices, pruned_fraction, rank, PruneScope, Ranking,
};
use serde::{Deserialize, Serialize};
use subfed_nn::models::channel_graph;
use subfed_nn::{ModelMask, Sequential};

/// Why a pruning gate fired or held — the observable outcome of the
/// three-gate decision (Algorithm 1 line 14 / Algorithm 2 lines 14–23),
/// reported in reading order of the gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateReason {
    /// Every gate passed; the mask advanced.
    Pruned,
    /// Validation accuracy below `Acc_th` (don't prune an unconverged
    /// model).
    AccuracyBelowThreshold,
    /// The target pruned fraction is already reached.
    TargetReached,
    /// Candidate-mask Hamming distance Δ below ε: the subnetwork has
    /// stabilised.
    MaskStable,
}

impl GateReason {
    /// Whether this outcome means the mask advanced.
    pub fn fired(self) -> bool {
        self == GateReason::Pruned
    }

    /// Stable kebab-case tag, as it appears in trace events.
    pub fn as_str(self) -> &'static str {
        match self {
            GateReason::Pruned => "pruned",
            GateReason::AccuracyBelowThreshold => "acc-below-threshold",
            GateReason::TargetReached => "target-reached",
            GateReason::MaskStable => "mask-stable",
        }
    }
}

/// The measured detail behind one gate decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateDecision {
    /// The outcome and, when held, the first gate that stopped it.
    pub reason: GateReason,
    /// Hamming distance Δ between the first- and last-epoch candidate
    /// masks; `None` when a gate held before Δ was computed.
    pub mask_distance: Option<f32>,
    /// Pruned fraction of the (possibly advanced) mask over the
    /// controller's scope.
    pub pruned_fraction: f32,
}

/// The accuracy gate, NaN-safe: passes only for a *finite* validation
/// accuracy at or above the threshold. A NaN/∞ accuracy means local
/// training diverged — `NaN >= th` is `false` but `NaN < th` is *also*
/// `false`, so naive "hold when below threshold" logic would let a
/// diverged client prune. Centralising the comparison closes that hole.
fn acc_gate_passes(val_acc: f32, threshold: f32) -> bool {
    val_acc.is_finite() && val_acc >= threshold
}

/// The mask-distance gate, NaN-safe: a non-finite Δ (possible only from
/// corrupted mask bookkeeping) reads as "not moving" and holds pruning,
/// classified as [`GateReason::MaskStable`].
fn delta_gate_passes(mask_distance: f32, eps: f32) -> bool {
    mask_distance.is_finite() && mask_distance >= eps
}

/// Client-side controller for Sub-FedAvg (Un) — Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UnstructuredController {
    /// Fraction of remaining weights pruned per accepted step (`r_us`,
    /// paper: 5–10% per iteration).
    pub rate: f32,
    /// Target overall pruned fraction (`p_us`, paper: 30/50/70%).
    pub target: f32,
    /// Validation-accuracy gate (`Acc_th`).
    pub acc_threshold: f32,
    /// Mask-distance gate (`ε_us`, paper: 1e-4).
    pub eps: f32,
    /// Which weights to prune.
    pub scope: PruneScope,
    /// Magnitude ranking strategy.
    pub ranking: Ranking,
}

impl UnstructuredController {
    /// The paper's hyper-parameters for Sub-FedAvg (Un) at a given target.
    pub fn paper_defaults(target: f32) -> Self {
        Self {
            rate: 0.1,
            target,
            acc_threshold: 0.5,
            eps: 1e-4,
            scope: PruneScope::AllWeights,
            ranking: Ranking::LayerWise,
        }
    }

    /// Derives the candidate mask for the current weights (one geometric
    /// pruning step below `current`).
    pub fn candidate(&self, model: &Sequential, current: &ModelMask) -> ModelMask {
        magnitude_mask(model, current, self.rate, self.scope, self.ranking)
    }

    /// Evaluates the three gates of Algorithm 1 (line 14).
    ///
    /// NaN-safe: a non-finite `val_acc` (a diverged local model) or a
    /// non-finite `mask_distance` never prunes — irreversible mask
    /// decisions require trusted measurements.
    pub fn should_prune(&self, val_acc: f32, current: &ModelMask, mask_distance: f32) -> bool {
        acc_gate_passes(val_acc, self.acc_threshold)
            && pruned_fraction(current, self.scope) < self.target
            && delta_gate_passes(mask_distance, self.eps)
    }

    /// One full client-side pruning decision: derive candidates from the
    /// first-epoch and last-epoch weights, gate on Δ, and return the new
    /// mask (the last-epoch candidate) if pruning fires.
    // lint: cold — the pruning decision runs once per client-round
    pub fn step(
        &self,
        model_first_epoch: &Sequential,
        model_last_epoch: &Sequential,
        current: &ModelMask,
        val_acc: f32,
    ) -> Option<ModelMask> {
        self.step_explained(model_first_epoch, model_last_epoch, current, val_acc).0
    }

    /// [`UnstructuredController::step`] plus the gate decision that
    /// produced it: which gate held (in the order of Algorithm 1 line 14)
    /// or that pruning fired, with the measured Δ and the resulting
    /// pruned fraction. Used by the telemetry layer.
    pub fn step_explained(
        &self,
        model_first_epoch: &Sequential,
        model_last_epoch: &Sequential,
        current: &ModelMask,
        val_acc: f32,
    ) -> (Option<ModelMask>, GateDecision) {
        self.decide(
            &model_slices(model_first_epoch),
            &model_slices(model_last_epoch),
            current,
            acc_gate_passes(val_acc, self.acc_threshold),
        )
    }

    /// [`UnstructuredController::step_explained`] over flat weight
    /// snapshots in `Sequential::flatten` order — what local training
    /// returns — so the caller rebuilds no model.
    ///
    /// # Panics
    ///
    /// Panics if either snapshot does not match the layout of `current`.
    pub fn step_explained_flat(
        &self,
        first_epoch: &[f32],
        last_epoch: &[f32],
        current: &ModelMask,
        val_acc: f32,
    ) -> (Option<ModelMask>, GateDecision) {
        self.decide(
            &flat_slices(first_epoch, current),
            &flat_slices(last_epoch, current),
            current,
            acc_gate_passes(val_acc, self.acc_threshold),
        )
    }

    /// The gate sequence of Algorithm 1 line 14 over per-tensor weight
    /// slices, given the accuracy gate's outcome (the hybrid controller
    /// shares one accuracy gate between its tracks). The accuracy and
    /// target gates need only `current`, so the candidates are ranked only
    /// once both pass.
    fn decide(
        &self,
        first_epoch: &[&[f32]],
        last_epoch: &[&[f32]],
        current: &ModelMask,
        acc_ok: bool,
    ) -> (Option<ModelMask>, GateDecision) {
        let frac = pruned_fraction(current, self.scope);
        let held = |reason, mask_distance| {
            (None, GateDecision { reason, mask_distance, pruned_fraction: frac })
        };
        if !acc_ok {
            return held(GateReason::AccuracyBelowThreshold, None);
        }
        if frac >= self.target {
            return held(GateReason::TargetReached, None);
        }
        let m_fe = rank(first_epoch, current, self.rate, self.scope, self.ranking);
        let m_le = rank(last_epoch, current, self.rate, self.scope, self.ranking);
        let delta = m_fe.hamming_distance(&m_le, |k| self.scope.includes(k));
        if !delta_gate_passes(delta, self.eps) {
            return held(GateReason::MaskStable, Some(delta));
        }
        let decision = GateDecision {
            reason: GateReason::Pruned,
            mask_distance: Some(delta),
            pruned_fraction: pruned_fraction(&m_le, self.scope),
        };
        (Some(m_le), decision)
    }
}

/// Decision of one hybrid step: which tracks fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StructuredGate {
    /// The structured (channel) track pruned this round.
    pub structured_fired: bool,
    /// The unstructured (FC) track pruned this round.
    pub unstructured_fired: bool,
}

/// The per-track gate decisions behind one hybrid step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridDecision {
    /// The structured (channel) track's decision.
    pub structured: GateDecision,
    /// The unstructured (FC) track's decision.
    pub unstructured: GateDecision,
}

/// Full outcome of one hybrid pruning step.
#[derive(Debug, Clone)]
pub struct HybridStep {
    /// Updated channel mask (structured track state).
    pub channels: ChannelMask,
    /// Updated FC-only unstructured base mask.
    pub unstructured: ModelMask,
    /// The combined parameter mask: `expand(channels) ∧ unstructured`.
    pub mask: ModelMask,
    /// Which tracks fired.
    pub gate: StructuredGate,
}

/// Client-side controller for Sub-FedAvg (Hy) — Algorithm 2: structured
/// pruning on conv channels (via BN |γ|) plus unstructured pruning on FC
/// weights, independently gated.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HybridController {
    /// Channel-pruning fraction per accepted step (`r_s`).
    pub structured_rate: f32,
    /// Target fraction of channels pruned (`p_s`).
    pub structured_target: f32,
    /// Channel mask-distance gate (`ε_s`, paper: 0.05).
    pub structured_eps: f32,
    /// The FC-scoped unstructured track.
    pub unstructured: UnstructuredController,
    /// Validation-accuracy gate shared by both tracks (`Acc_th`).
    pub acc_threshold: f32,
}

impl HybridController {
    /// The paper's hyper-parameters for Sub-FedAvg (Hy) at the given
    /// channel/weight targets.
    pub fn paper_defaults(structured_target: f32, unstructured_target: f32) -> Self {
        Self {
            structured_rate: 0.1,
            structured_target,
            structured_eps: 0.05,
            unstructured: UnstructuredController {
                rate: 0.1,
                target: unstructured_target,
                acc_threshold: 0.5,
                eps: 1e-4,
                scope: PruneScope::FcOnly,
                ranking: Ranking::LayerWise,
            },
            acc_threshold: 0.5,
        }
    }

    /// One full client-side hybrid pruning decision (Algorithm 2 lines
    /// 14–23). The returned parameter mask is always the expansion of the
    /// (possibly unchanged) channel mask over the (possibly unchanged)
    /// unstructured base.
    // lint: cold — the pruning decision runs once per client-round
    pub fn step(
        &self,
        model_first_epoch: &Sequential,
        model_last_epoch: &Sequential,
        current_channels: &ChannelMask,
        current_unstructured: &ModelMask,
        val_acc: f32,
    ) -> HybridStep {
        self.step_explained(
            model_first_epoch,
            model_last_epoch,
            current_channels,
            current_unstructured,
            val_acc,
        )
        .0
    }

    /// [`HybridController::step`] plus each track's gate decision: which
    /// gate held it (or that it fired), with the measured Δ and resulting
    /// pruned fraction. Used by the telemetry layer.
    pub fn step_explained(
        &self,
        model_first_epoch: &Sequential,
        model_last_epoch: &Sequential,
        current_channels: &ChannelMask,
        current_unstructured: &ModelMask,
        val_acc: f32,
    ) -> (HybridStep, HybridDecision) {
        let mut channels = current_channels.clone();
        let acc_ok = acc_gate_passes(val_acc, self.acc_threshold);

        // Structured track.
        let structured = if !acc_ok {
            GateDecision {
                reason: GateReason::AccuracyBelowThreshold,
                mask_distance: None,
                pruned_fraction: current_channels.pruned_fraction(),
            }
        } else if current_channels.pruned_fraction() >= self.structured_target {
            GateDecision {
                reason: GateReason::TargetReached,
                mask_distance: None,
                pruned_fraction: current_channels.pruned_fraction(),
            }
        } else {
            let c_fe = slimming_mask(model_first_epoch, current_channels, self.structured_rate);
            let c_le = slimming_mask(model_last_epoch, current_channels, self.structured_rate);
            let delta_s = c_fe.hamming_distance(&c_le);
            if delta_gate_passes(delta_s, self.structured_eps) {
                channels = c_le;
                GateDecision {
                    reason: GateReason::Pruned,
                    mask_distance: Some(delta_s),
                    pruned_fraction: channels.pruned_fraction(),
                }
            } else {
                GateDecision {
                    reason: GateReason::MaskStable,
                    mask_distance: Some(delta_s),
                    pruned_fraction: current_channels.pruned_fraction(),
                }
            }
        };

        // Unstructured (FC) track — gated independently, on the shared
        // accuracy gate.
        let (advanced, unstructured_decision) = self.unstructured.decide(
            &model_slices(model_first_epoch),
            &model_slices(model_last_epoch),
            current_unstructured,
            acc_ok,
        );
        let unstructured = advanced.unwrap_or_else(|| current_unstructured.clone());
        let gate = StructuredGate {
            structured_fired: structured.reason.fired(),
            unstructured_fired: unstructured_decision.reason.fired(),
        };

        let mask = expand_channel_mask(model_last_epoch, &channels, &unstructured);
        (
            HybridStep { channels, unstructured, mask, gate },
            HybridDecision { structured, unstructured: unstructured_decision },
        )
    }

    /// Builds the initial (all-ones) channel mask for a model.
    pub fn initial_channels(model: &Sequential) -> ChannelMask {
        ChannelMask::ones_for(&channel_graph(model))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use subfed_nn::models::ModelSpec;
    use subfed_tensor::init::SeededRng;

    fn model(seed: u64) -> Sequential {
        let mut m = ModelSpec::lenet5(1, 16, 16, 4).build(&mut SeededRng::new(seed));
        // Fresh models all carry γ = 1; randomise them as local training
        // would, so channel importances (and thus candidate masks) differ
        // between "first epoch" and "last epoch" snapshots.
        let mut rng = SeededRng::new(seed ^ 0xABCD);
        for p in m.params_mut() {
            if p.kind == subfed_nn::ParamKind::BnGamma {
                for v in p.value.data_mut() {
                    *v = rng.uniform_f32(0.1, 2.0);
                }
            }
        }
        m
    }

    #[test]
    fn gates_all_must_pass() {
        let c = UnstructuredController::paper_defaults(0.5);
        let m = model(1);
        let ones = ModelMask::ones_for(&m);
        // All pass.
        assert!(c.should_prune(0.9, &ones, 0.01));
        // Accuracy too low.
        assert!(!c.should_prune(0.4, &ones, 0.01));
        // Distance below eps.
        assert!(!c.should_prune(0.9, &ones, 0.0));
        // Target reached: craft a mask at 50%.
        let half = magnitude_mask(&m, &ones, 0.5, PruneScope::AllWeights, Ranking::LayerWise);
        assert!(!c.should_prune(0.9, &half, 0.01));
    }

    #[test]
    fn step_prunes_when_weights_moved() {
        let c = UnstructuredController::paper_defaults(0.7);
        // Two different models (simulating first vs last epoch weights)
        // produce different candidate masks -> distance above eps.
        let m_fe = model(1);
        let m_le = model(2);
        let current = ModelMask::ones_for(&m_fe);
        let next = c.step(&m_fe, &m_le, &current, 0.9).expect("should prune");
        let frac = pruned_fraction(&next, PruneScope::AllWeights);
        assert!((frac - c.rate).abs() < 0.01, "{frac}");
    }

    #[test]
    fn step_skips_when_mask_stable() {
        let c = UnstructuredController::paper_defaults(0.7);
        // Identical models -> identical candidates -> Δ = 0 < ε.
        let m = model(3);
        let current = ModelMask::ones_for(&m);
        assert!(c.step(&m, &m, &current, 0.9).is_none());
    }

    #[test]
    fn hybrid_tracks_fire_independently() {
        let hc = HybridController::paper_defaults(0.5, 0.5);
        let m_fe = model(4);
        let m_le = model(5);
        let channels = HybridController::initial_channels(&m_fe);
        let unstructured = ModelMask::ones_for(&m_fe);
        let step = hc.step(&m_fe, &m_le, &channels, &unstructured, 0.9);
        // Different models: both tracks should fire.
        assert!(step.gate.structured_fired);
        assert!(step.gate.unstructured_fired);
        assert!(step.channels.pruned_fraction() > 0.0);
        // Param mask reflects both.
        assert!(step.mask.pruned_fraction(|k| k == subfed_nn::ParamKind::FcWeight) > 0.0);
        assert!(step.mask.pruned_fraction(|k| k == subfed_nn::ParamKind::ConvWeight) > 0.0);
        // The unstructured base only touches FC weights.
        assert_eq!(
            step.unstructured.pruned_fraction(|k| k == subfed_nn::ParamKind::ConvWeight),
            0.0
        );
    }

    #[test]
    fn hybrid_respects_low_accuracy() {
        let hc = HybridController::paper_defaults(0.5, 0.5);
        let m_fe = model(6);
        let m_le = model(7);
        let channels = HybridController::initial_channels(&m_fe);
        let unstructured = ModelMask::ones_for(&m_fe);
        let step = hc.step(&m_fe, &m_le, &channels, &unstructured, 0.1);
        assert!(!step.gate.structured_fired && !step.gate.unstructured_fired);
        assert_eq!(step.channels, channels);
        assert_eq!(step.mask.pruned_fraction(|_| true), 0.0);
    }

    #[test]
    fn hybrid_structured_stops_at_target() {
        let hc = HybridController::paper_defaults(0.2, 0.9);
        let m_fe = model(8);
        let m_le = model(9);
        let mut channels = HybridController::initial_channels(&m_fe);
        let mut unstructured = ModelMask::ones_for(&m_fe);
        for _ in 0..30 {
            let step = hc.step(&m_fe, &m_le, &channels, &unstructured, 0.9);
            channels = step.channels;
            unstructured = step.unstructured;
        }
        // Channel pruning stops once past the 20% target (one extra step
        // can overshoot by at most one rate increment).
        assert!(channels.pruned_fraction() <= 0.2 + hc.structured_rate + 1e-6);
        assert!(channels.pruned_fraction() >= 0.15);
    }

    #[test]
    fn step_explained_reports_the_first_holding_gate() {
        let c = UnstructuredController::paper_defaults(0.5);
        let m_fe = model(1);
        let m_le = model(2);
        let ones = ModelMask::ones_for(&m_fe);
        let (mask, d) = c.step_explained(&m_fe, &m_le, &ones, 0.9);
        assert!(mask.is_some());
        assert_eq!(d.reason, GateReason::Pruned);
        assert!(d.reason.fired());
        assert!(d.mask_distance.is_some_and(|delta| delta > 0.0));
        assert!((d.pruned_fraction - c.rate).abs() < 0.01);
        let (none, d) = c.step_explained(&m_fe, &m_le, &ones, 0.1);
        assert!(none.is_none());
        assert_eq!(d.reason, GateReason::AccuracyBelowThreshold);
        assert!(!d.reason.fired());
        let (_, d) = c.step_explained(&m_fe, &m_fe, &ones, 0.9);
        assert_eq!(d.reason, GateReason::MaskStable);
        let half = magnitude_mask(&m_fe, &ones, 0.5, PruneScope::AllWeights, Ranking::LayerWise);
        let (_, d) = c.step_explained(&m_fe, &m_le, &half, 0.9);
        assert_eq!(d.reason, GateReason::TargetReached);
        assert_eq!(d.reason.as_str(), "target-reached");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn flat_entry_matches_model_entry(
            seed in 0u64..10_000,
            stable in prop::bool::ANY,
            val_acc in prop::sample::select(vec![0.1f32, 0.9, f32::NAN]),
            target in prop::sample::select(vec![0.05f32, 0.5]),
            rate in prop::sample::select(vec![1e-3f32, 0.2]),
            scope in prop::sample::select(vec![PruneScope::AllWeights, PruneScope::FcOnly]),
            ranking in prop::sample::select(vec![Ranking::LayerWise, Ranking::Global]),
        ) {
            let c = UnstructuredController {
                rate,
                target,
                acc_threshold: 0.5,
                eps: 1e-4,
                scope,
                ranking,
            };
            let m_fe = model(seed);
            let m_le = if stable { model(seed) } else { model(seed + 1) };
            // Start from a partly pruned mask half the time.
            let ones = ModelMask::ones_for(&m_fe);
            let current = if seed % 2 == 0 { c.candidate(&m_fe, &ones) } else { ones };
            let by_model = c.step_explained(&m_fe, &m_le, &current, val_acc);
            let by_flat =
                c.step_explained_flat(&m_fe.flatten(), &m_le.flatten(), &current, val_acc);
            prop_assert_eq!(by_model, by_flat);
        }
    }

    #[test]
    fn delta_is_computed_only_after_accuracy_and_target_pass() {
        let c = UnstructuredController::paper_defaults(0.5);
        let m_fe = model(1);
        let m_le = model(2);
        let ones = ModelMask::ones_for(&m_fe);
        let half = magnitude_mask(&m_fe, &ones, 0.5, PruneScope::AllWeights, Ranking::LayerWise);
        // Held by accuracy or target: Δ was never computed.
        let (_, d) = c.step_explained(&m_fe, &m_le, &ones, 0.1);
        assert_eq!(d.mask_distance, None);
        let (_, d) = c.step_explained(&m_fe, &m_le, &half, 0.9);
        assert_eq!((d.reason, d.mask_distance), (GateReason::TargetReached, None));
        // Accuracy is checked before the target.
        let (_, d) = c.step_explained(&m_fe, &m_le, &half, 0.1);
        assert_eq!(d.reason, GateReason::AccuracyBelowThreshold);
        // Held by Δ: the measured distance is reported, even when it is 0.
        let (_, d) = c.step_explained(&m_fe, &m_fe, &ones, 0.9);
        assert_eq!((d.reason, d.mask_distance), (GateReason::MaskStable, Some(0.0)));
    }

    #[test]
    fn step_explained_matches_step() {
        let c = UnstructuredController::paper_defaults(0.5);
        let m_fe = model(1);
        let m_le = model(2);
        let ones = ModelMask::ones_for(&m_fe);
        assert_eq!(c.step(&m_fe, &m_le, &ones, 0.9), c.step_explained(&m_fe, &m_le, &ones, 0.9).0);
    }

    #[test]
    fn hybrid_step_explained_reports_both_tracks() {
        let hc = HybridController::paper_defaults(0.5, 0.5);
        let m_fe = model(4);
        let m_le = model(5);
        let channels = HybridController::initial_channels(&m_fe);
        let unstructured = ModelMask::ones_for(&m_fe);
        let (step, d) = hc.step_explained(&m_fe, &m_le, &channels, &unstructured, 0.9);
        assert_eq!(step.gate.structured_fired, d.structured.reason.fired());
        assert_eq!(step.gate.unstructured_fired, d.unstructured.reason.fired());
        assert_eq!(d.structured.reason, GateReason::Pruned);
        assert_eq!(d.unstructured.reason, GateReason::Pruned);
        // Accuracy gate is shared and reported per track.
        let (_, held) = hc.step_explained(&m_fe, &m_le, &channels, &unstructured, 0.1);
        assert_eq!(held.structured.reason, GateReason::AccuracyBelowThreshold);
        assert_eq!(held.unstructured.reason, GateReason::AccuracyBelowThreshold);
        assert_eq!(held.structured.mask_distance, None);
        assert_eq!(held.unstructured.mask_distance, None);
    }

    #[test]
    fn nan_accuracy_never_prunes() {
        let c = UnstructuredController::paper_defaults(0.5);
        let m_fe = model(1);
        let m_le = model(2);
        let ones = ModelMask::ones_for(&m_fe);
        // The same inputs prune at a healthy accuracy...
        assert!(c.step(&m_fe, &m_le, &ones, 0.9).is_some());
        // ...but a diverged (NaN/∞) accuracy must hold the gate, even
        // though `NaN < threshold` is false.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            assert!(!c.should_prune(bad, &ones, 0.01), "{bad} passed should_prune");
            let (mask, d) = c.step_explained(&m_fe, &m_le, &ones, bad);
            assert!(mask.is_none(), "{bad} pruned");
            assert_eq!(d.reason, GateReason::AccuracyBelowThreshold);
        }
    }

    #[test]
    fn nan_mask_distance_reads_as_stable() {
        let c = UnstructuredController::paper_defaults(0.5);
        let m = model(3);
        let ones = ModelMask::ones_for(&m);
        assert!(!c.should_prune(0.9, &ones, f32::NAN));
        // ∞ is non-finite too: corrupted bookkeeping must not fire the gate.
        assert!(!c.should_prune(0.9, &ones, f32::INFINITY));
    }

    #[test]
    fn hybrid_nan_accuracy_holds_both_tracks() {
        let hc = HybridController::paper_defaults(0.5, 0.5);
        let m_fe = model(4);
        let m_le = model(5);
        let channels = HybridController::initial_channels(&m_fe);
        let unstructured = ModelMask::ones_for(&m_fe);
        let (step, d) = hc.step_explained(&m_fe, &m_le, &channels, &unstructured, f32::NAN);
        assert!(!step.gate.structured_fired && !step.gate.unstructured_fired);
        assert_eq!(d.structured.reason, GateReason::AccuracyBelowThreshold);
        assert_eq!(d.unstructured.reason, GateReason::AccuracyBelowThreshold);
        assert_eq!(step.mask.pruned_fraction(|_| true), 0.0);
    }

    #[test]
    fn paper_defaults_match_hyperparameters() {
        let c = UnstructuredController::paper_defaults(0.3);
        assert_eq!(c.eps, 1e-4);
        assert_eq!(c.target, 0.3);
        let h = HybridController::paper_defaults(0.5, 0.7);
        assert_eq!(h.structured_eps, 0.05);
        assert_eq!(h.unstructured.scope, PruneScope::FcOnly);
    }
}
