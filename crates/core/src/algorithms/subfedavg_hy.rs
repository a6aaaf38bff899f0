//! **Sub-FedAvg (Hy)** — Algorithm 2 of the paper: hybrid pruning.
//!
//! Like Algorithm 1, but each client's subnetwork is shaped by two
//! independently gated tracks: structured channel pruning on the conv
//! blocks (driven by BatchNorm |γ|) and unstructured magnitude pruning on
//! the FC weights. The combined parameter mask — channel expansion
//! intersected with the FC mask — is what trains, travels, and aggregates.

use super::common::{download, record_gates, record_round, train_traced, upload};
use crate::{
    flatten_mask, invariants, subfedavg_aggregate, FederatedAlgorithm, Federation, History,
};
use subfed_metrics::trace::TraceEvent;
use subfed_nn::ModelMask;
use subfed_pruning::{ChannelMask, HybridController};

/// Per-client pruning state for the hybrid algorithm.
#[derive(Debug, Clone)]
struct ClientState {
    channels: ChannelMask,
    unstructured: ModelMask,
    mask: ModelMask,
}

/// Sub-FedAvg with hybrid pruning (Table 1's "Sub-FedAvg (Hy)" rows).
#[derive(Debug, Clone)]
pub struct SubFedAvgHy {
    fed: Federation,
    controller: HybridController,
    final_channels: Vec<ChannelMask>,
}

impl SubFedAvgHy {
    /// Creates a run with the paper's hyper-parameters at the given
    /// channel / FC-weight pruning targets (e.g. `0.5, 0.5` for the
    /// "50% + 50%" row).
    pub fn new(fed: Federation, structured_target: f32, unstructured_target: f32) -> Self {
        Self::with_controller(
            fed,
            HybridController::paper_defaults(structured_target, unstructured_target),
        )
    }

    /// Creates a run with an explicit controller (for sweeps/ablations).
    pub fn with_controller(fed: Federation, controller: HybridController) -> Self {
        Self { fed, controller, final_channels: Vec::new() }
    }

    /// The pruning controller in use.
    pub fn controller(&self) -> &HybridController {
        &self.controller
    }

    /// The per-client channel masks after the last completed run; empty
    /// before the first run. Feeds the measured half of the Table-2
    /// harness (FLOP reduction at the channels clients actually pruned).
    pub fn final_channels(&self) -> &[ChannelMask] {
        &self.final_channels
    }
}

impl FederatedAlgorithm for SubFedAvgHy {
    fn name(&self) -> String {
        format!(
            "Sub-FedAvg (Hy) {:.0}%+{:.0}%",
            self.controller.structured_target * 100.0,
            self.controller.unstructured.target * 100.0
        )
    }

    fn run(&mut self) -> History {
        let fed = &self.fed;
        let mut global = fed.init_global();
        let template = fed.build_model();
        let init_state = ClientState {
            channels: HybridController::initial_channels(&template),
            unstructured: ModelMask::ones_for(&template),
            mask: ModelMask::ones_for(&template),
        };
        let mut states: Vec<ClientState> = vec![init_state; fed.num_clients()];
        let mut local_flats: Vec<Vec<f32>> = vec![global.clone(); fed.num_clients()];
        let mut history = History::new();
        let mut cum_bytes = 0u64;
        for round in 1..=fed.config().rounds {
            let round_span = fed.tracer().span();
            let ids = fed.begin_round(round);
            let states_ref = &states;
            let global_ref = &global;
            let outcomes = fed.par_map(&ids, |i| {
                let data = fed.client_data(i);
                train_traced(fed, round, i, global_ref, &data, Some(&states_ref[i].mask), None)
            });
            let mut updates: Vec<(Vec<f32>, Vec<f32>)> = Vec::with_capacity(ids.len());
            for (out, &i) in outcomes.into_iter().zip(ids.iter()) {
                cum_bytes += download(fed, round, i, states[i].mask.kept_count(|_| true));
                let prune_span = fed.tracer().span();
                let mut model_fe = fed.build_model();
                model_fe.load_flat(&out.first_epoch_flat);
                let mut model_le = fed.build_model();
                model_le.load_flat(&out.final_flat);
                let (step, decision) = self.controller.step_explained(
                    &model_fe,
                    &model_le,
                    &states[i].channels,
                    &states[i].unstructured,
                    out.val_acc,
                );
                let gates = [("channel", &decision.structured), ("un", &decision.unstructured)];
                record_gates(fed, round, i, out.val_acc, prune_span, &gates);
                let mask_changed = step.gate.structured_fired || step.gate.unstructured_fired;
                states[i] = ClientState {
                    channels: step.channels,
                    unstructured: step.unstructured,
                    mask: step.mask,
                };
                let mut final_flat = out.final_flat;
                let flat_mask = flatten_mask(&states[i].mask);
                let up = upload(fed, round, i, &mut final_flat, &flat_mask, mask_changed);
                cum_bytes += up.bytes;
                // Copied into the resident buffer, not moved: a worker-
                // allocated vector held across rounds pins that worker's
                // malloc arena (classic-hy peak RSS +4 %).
                local_flats[i].copy_from_slice(&final_flat);
                updates.push((up.params, up.mask));
            }
            // A round nobody survived trains nothing and aggregates nothing.
            if !updates.is_empty() {
                let agg_span = fed.tracer().span();
                // Aggregate boundary: the cohort must cover >= 1 position.
                invariants::enforce_with(fed.tracer(), round, "aggregate", || {
                    invariants::check_aggregation_coverage(&updates, global.len())
                });
                global = subfedavg_aggregate(&global, &updates);
                fed.tracer().emit(TraceEvent::Aggregate {
                    round,
                    us: agg_span.elapsed_us(),
                    updates: updates.len(),
                });
            }
            let n = states.len() as f32;
            let per_client_pruned: Vec<f32> =
                states.iter().map(|s| s.mask.pruned_fraction(|k| k.is_prunable_weight())).collect();
            let avg_pruned_params = per_client_pruned.iter().sum::<f32>() / n;
            let avg_pruned_channels =
                states.iter().map(|s| s.channels.pruned_fraction()).sum::<f32>() / n;
            record_round(
                &mut history,
                fed,
                round,
                &local_flats,
                cum_bytes,
                subfed_metrics::trace::model_hash(&global),
                avg_pruned_params,
                avg_pruned_channels,
                per_client_pruned,
                round_span,
            );
        }
        self.final_channels = states.into_iter().map(|s| s.channels).collect();
        history
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::tiny_federation;

    fn run_hybrid(rounds: usize) -> History {
        let fed = tiny_federation(rounds, 4);
        let mut controller = HybridController::paper_defaults(0.4, 0.5);
        controller.acc_threshold = 0.0;
        controller.unstructured.acc_threshold = 0.0;
        controller.structured_rate = 0.2;
        controller.unstructured.rate = 0.2;
        SubFedAvgHy::with_controller(fed, controller).run()
    }

    #[test]
    fn both_tracks_prune() {
        let h = run_hybrid(5);
        assert!(h.final_pruned_channels() > 0.1, "channels {}", h.final_pruned_channels());
        assert!(h.final_pruned_params() > 0.1, "params {}", h.final_pruned_params());
    }

    #[test]
    fn channel_target_is_respected() {
        let h = run_hybrid(8);
        // Target 0.4, rate 0.2 -> can overshoot by at most one step.
        assert!(h.final_pruned_channels() <= 0.4 + 0.2 + 1e-5);
    }

    #[test]
    fn cheaper_than_dense_and_learns() {
        let fed = tiny_federation(5, 4);
        let num_params = fed.build_model().num_params() as u64;
        let k = fed.config().clients_per_round(4) as u64;
        let dense_total = 5 * k * num_params * 4 * 2;
        let h = run_hybrid(5);
        assert!(h.total_bytes() < dense_total);
        assert!(h.final_avg_acc() > 0.35, "accuracy {}", h.final_avg_acc());
    }

    #[test]
    fn deterministic() {
        assert_eq!(run_hybrid(3), run_hybrid(3));
    }

    #[test]
    fn final_channels_are_exposed_after_run() {
        let fed = tiny_federation(4, 4);
        let mut controller = HybridController::paper_defaults(0.4, 0.5);
        controller.acc_threshold = 0.0;
        controller.unstructured.acc_threshold = 0.0;
        controller.structured_rate = 0.2;
        let mut algo = SubFedAvgHy::with_controller(fed, controller);
        assert!(algo.final_channels().is_empty());
        let h = algo.run();
        assert_eq!(algo.final_channels().len(), 4);
        let mean: f32 =
            algo.final_channels().iter().map(|c| c.pruned_fraction()).sum::<f32>() / 4.0;
        assert!((mean - h.final_pruned_channels()).abs() < 1e-5);
    }

    #[test]
    fn name_includes_both_targets() {
        let fed = tiny_federation(1, 4);
        assert_eq!(SubFedAvgHy::new(fed, 0.5, 0.7).name(), "Sub-FedAvg (Hy) 50%+70%");
    }
}
