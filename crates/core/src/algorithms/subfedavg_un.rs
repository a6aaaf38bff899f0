//! **Sub-FedAvg (Un)** — Algorithm 1 of the paper.
//!
//! Every client holds a persistent binary mask `m_k` (its personalized
//! subnetwork). A round:
//!
//! 1. sampled clients download `θ_g ⊙ m_k` and train locally with the mask
//!    frozen;
//! 2. candidate masks are derived from the first-epoch and last-epoch
//!    weights; if validation accuracy, the target rate, and the mask
//!    distance Δ all allow it, the client prunes a further `r_us`% of its
//!    remaining weights;
//! 3. clients upload their masked parameters (plus the bit-packed mask in
//!    rounds where it changed);
//! 4. the server applies **Sub-FedAvg averaging**: each position is
//!    averaged only over the clients that kept it.
//!
//! Evaluation is personalized: each client's last trained subnetwork on its
//! own test set.
//!
//! Steps 1 and 3 and the gate bookkeeping of step 2 are the shared
//! client-pipeline stages in `algorithms::common` — the same ones
//! Sub-FedAvg (Hy) and the registry-scale [`crate::ScaledSubFedAvg`] run.
//! This driver adds only the pruning call, the per-client state write-back
//! (including the lottery-rewind extension) and the batch aggregators of
//! [`SubFedAvgOptions`].
//!
//! The implementation is a resumable state machine: [`SubFedAvgUn::run`]
//! drives [`SubFedAvgUn::step_round`] to the configured horizon, and the
//! server-persistent part of the state (round counter, global parameters,
//! client masks) round-trips through [`crate::checkpoint::Checkpoint`].

use super::common::{apply_flat_mask, download, record_gates, record_round, train_traced, upload};
use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::{
    flatten_mask, invariants, subfedavg_aggregate, unflatten_mask, FederatedAlgorithm, Federation,
    History,
};
use subfed_metrics::trace::TraceEvent;
use subfed_nn::ModelMask;
use subfed_pruning::UnstructuredController;

/// Engine options that deviate from Algorithm 1, used by the ablation and
/// extension benches.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SubFedAvgOptions {
    /// Replace intersection averaging with plain FedAvg over masked
    /// updates (divide by the cohort size instead of the per-position
    /// holder count). Ablation 1 in `DESIGN.md`.
    pub plain_average: bool,
    /// Reset every client's mask to all-ones at the start of each round
    /// (no persistent personalization). Ablation 5.
    pub fresh_masks: bool,
    /// Lottery-ticket rewinding: when a client prunes, its surviving
    /// weights are rewound to the initial parameters θ₀ (the Frankle &
    /// Carbin procedure — Algorithm 1 threads θ₀ into `ClientUpdate` for
    /// exactly this purpose). Extension experiment.
    pub rewind_to_init: bool,
    /// Coordinate-wise trimmed-mean intersection averaging: drop this many
    /// extreme contributions per side at every position before averaging.
    /// Robust-aggregation extension (pairs with corrupted-client runs).
    pub trim: usize,
}

/// The live state of a Sub-FedAvg (Un) run.
#[derive(Debug, Clone)]
struct RunState {
    /// Next round to execute (1-based).
    next_round: usize,
    /// The server's dense global parameters θ_g.
    global: Vec<f32>,
    /// θ₀, kept for lottery rewinding.
    init_flat: Vec<f32>,
    /// Per-client persistent masks m_k.
    masks: Vec<ModelMask>,
    /// Per-client personalized models (for evaluation).
    local_flats: Vec<Vec<f32>>,
    /// Cumulative communication bytes.
    cum_bytes: u64,
    /// Round records so far.
    history: History,
}

/// Sub-FedAvg with unstructured pruning (Table 1's "Sub-FedAvg (Un)"
/// rows).
#[derive(Debug, Clone)]
pub struct SubFedAvgUn {
    fed: Federation,
    controller: UnstructuredController,
    options: SubFedAvgOptions,
    state: Option<RunState>,
}

impl SubFedAvgUn {
    /// Creates a run with the paper's hyper-parameters at the given target
    /// pruning rate (e.g. `0.3`, `0.5`, `0.7`).
    pub fn new(fed: Federation, target: f32) -> Self {
        Self::with_controller(fed, UnstructuredController::paper_defaults(target))
    }

    /// Creates a run with an explicit controller (for sweeps/ablations).
    pub fn with_controller(fed: Federation, controller: UnstructuredController) -> Self {
        Self { fed, controller, options: SubFedAvgOptions::default(), state: None }
    }

    /// Overrides engine options (ablations/extensions).
    pub fn with_options(mut self, options: SubFedAvgOptions) -> Self {
        self.options = options;
        self
    }

    /// The pruning controller in use.
    pub fn controller(&self) -> &UnstructuredController {
        &self.controller
    }

    /// The per-client masks of the current state (empty before the first
    /// round). Feeds the partner-discovery analysis.
    pub fn final_masks(&self) -> &[ModelMask] {
        self.state.as_ref().map_or(&[], |s| &s.masks)
    }

    /// Snapshots the server-persistent state (round counter, global
    /// parameters, client masks) for later [`SubFedAvgUn::restore`].
    ///
    /// # Panics
    ///
    /// Panics if no round has been executed yet.
    pub fn checkpoint(&self) -> Checkpoint {
        // Documented panic: checkpointing an un-run federation is a driver
        // bug, not a recoverable condition.
        // lint: allow(no-unwrap)
        let s = self.state.as_ref().expect("checkpoint before any round");
        Checkpoint {
            round: (s.next_round - 1) as u32,
            global: s.global.clone(),
            client_masks: s.masks.iter().map(flatten_mask).collect(),
        }
    }

    /// Restores a checkpointed state: training resumes at
    /// `checkpoint.round + 1`. Per-client evaluation models are re-seeded
    /// as `θ_g ⊙ m_k` (the download every client would perform), and the
    /// history restarts — only the *training* trajectory is guaranteed to
    /// continue exactly (verified by the resume test).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::ModelSizeMismatch`],
    /// [`CheckpointError::ClientCountMismatch`] or
    /// [`CheckpointError::MaskLengthMismatch`] when the checkpoint does not
    /// fit this federation; the current state is then left untouched.
    #[must_use = "a dropped Result hides a checkpoint that did not fit"]
    pub fn restore(&mut self, ckpt: &Checkpoint) -> Result<(), CheckpointError> {
        let layout = ModelMask::ones_for(&self.fed.build_model());
        let num_params = layout.total_count(|_| true);
        if ckpt.global.len() != num_params {
            return Err(CheckpointError::ModelSizeMismatch {
                expected: num_params,
                got: ckpt.global.len(),
            });
        }
        if ckpt.client_masks.len() != self.fed.num_clients() {
            return Err(CheckpointError::ClientCountMismatch {
                expected: self.fed.num_clients(),
                got: ckpt.client_masks.len(),
            });
        }
        if let Some((client, flat)) =
            ckpt.client_masks.iter().enumerate().find(|(_, flat)| flat.len() != num_params)
        {
            return Err(CheckpointError::MaskLengthMismatch {
                client,
                expected: num_params,
                got: flat.len(),
            });
        }
        let masks = ckpt.client_masks.iter().map(|flat| unflatten_mask(&layout, flat)).collect();
        let local_flats = ckpt
            .client_masks
            .iter()
            .map(|flat| {
                let mut local = ckpt.global.clone();
                apply_flat_mask(&mut local, flat);
                local
            })
            .collect();
        self.state = Some(RunState {
            next_round: ckpt.round as usize + 1,
            global: ckpt.global.clone(),
            init_flat: self.fed.init_global(),
            masks,
            local_flats,
            cum_bytes: 0,
            history: History::new(),
        });
        Ok(())
    }

    fn ensure_state(&mut self) -> &mut RunState {
        if self.state.is_none() {
            let global = self.fed.init_global();
            let template = self.fed.build_model();
            let ones = ModelMask::ones_for(&template);
            self.state = Some(RunState {
                next_round: 1,
                init_flat: global.clone(),
                masks: vec![ones; self.fed.num_clients()],
                local_flats: vec![global.clone(); self.fed.num_clients()],
                global,
                cum_bytes: 0,
                history: History::new(),
            });
        }
        match self.state.as_mut() {
            Some(s) => s,
            None => unreachable!("state initialised just above"),
        }
    }

    fn pruned_fractions(&self, masks: &[ModelMask]) -> Vec<f32> {
        masks.iter().map(|m| m.pruned_fraction(|k| self.controller.scope.includes(k))).collect()
    }

    /// Executes exactly one communication round, appending its record to
    /// the internal history.
    pub fn step_round(&mut self) {
        self.ensure_state();
        let fed = &self.fed;
        let controller = self.controller;
        let options = self.options;
        let mut state = match self.state.take() {
            Some(s) => s,
            None => unreachable!("ensure_state ran just above"),
        };
        let round = state.next_round;
        if options.fresh_masks {
            let template = fed.build_model();
            let ones = ModelMask::ones_for(&template);
            for m in &mut state.masks {
                *m = ones.clone();
            }
        }
        let round_span = fed.tracer().span();
        let ids = fed.begin_round(round);
        let masks_ref = &state.masks;
        let global_ref = &state.global;
        let outcomes = fed.par_map(&ids, |i| {
            let data = fed.client_data(i);
            train_traced(fed, round, i, global_ref, &data, Some(&masks_ref[i]), None)
        });
        let mut updates: Vec<(Vec<f32>, Vec<f32>)> = Vec::with_capacity(ids.len());
        for (out, &i) in outcomes.into_iter().zip(ids.iter()) {
            state.cum_bytes += download(fed, round, i, state.masks[i].kept_count(|_| true));
            // Pruning decision from the two weight snapshots.
            let prune_span = fed.tracer().span();
            let (new_mask, decision) = controller.step_explained_flat(
                &out.first_epoch_flat,
                &out.final_flat,
                &state.masks[i],
                out.val_acc,
            );
            record_gates(fed, round, i, out.val_acc, prune_span, &[("un", &decision)]);
            let mask_changed = new_mask.is_some();
            if let Some(new_mask) = new_mask {
                state.masks[i] = new_mask;
            }
            // θ_k^{j,le} — or the rewound ticket θ₀ under the
            // lottery-ticket extension — masked by `upload`.
            let mut final_flat = if mask_changed && options.rewind_to_init {
                state.init_flat.clone()
            } else {
                out.final_flat
            };
            let flat_mask = flatten_mask(&state.masks[i]);
            let up = upload(fed, round, i, &mut final_flat, &flat_mask, mask_changed);
            state.cum_bytes += up.bytes;
            // Copied, not moved, as in Sub-FedAvg (Hy): keeps long-lived
            // state out of the workers' malloc arenas.
            state.local_flats[i].copy_from_slice(&final_flat);
            updates.push((up.params, up.mask));
        }
        // A round nobody survived trains nothing and aggregates nothing.
        if !updates.is_empty() {
            let agg_span = fed.tracer().span();
            let num_updates = updates.len();
            // Aggregate boundary: a non-empty cohort must cover at least
            // one position, or intersection averaging silently no-ops the
            // round.
            invariants::enforce_with(fed.tracer(), round, "aggregate", || {
                invariants::check_aggregation_coverage(&updates, state.global.len())
            });
            state.global = if options.plain_average {
                let dense: Vec<(Vec<f32>, usize)> =
                    updates.into_iter().map(|(p, _)| (p, 1)).collect();
                crate::fedavg_aggregate(&dense)
            } else if options.trim > 0 {
                crate::subfedavg_aggregate_trimmed(&state.global, &updates, options.trim)
            } else {
                subfedavg_aggregate(&state.global, &updates)
            };
            fed.tracer().emit(TraceEvent::Aggregate {
                round,
                us: agg_span.elapsed_us(),
                updates: num_updates,
            });
        }
        let per_client_pruned = self.pruned_fractions(&state.masks);
        let avg_pruned = per_client_pruned.iter().sum::<f32>() / per_client_pruned.len() as f32;
        record_round(
            &mut state.history,
            fed,
            round,
            &state.local_flats,
            state.cum_bytes,
            subfed_metrics::trace::model_hash(&state.global),
            avg_pruned,
            0.0,
            per_client_pruned,
            round_span,
        );
        state.next_round += 1;
        self.state = Some(state);
    }
}

impl FederatedAlgorithm for SubFedAvgUn {
    fn name(&self) -> String {
        format!("Sub-FedAvg (Un) {:.0}%", self.controller.target * 100.0)
    }

    fn run(&mut self) -> History {
        self.state = None; // a fresh run, not a resume
        let horizon = self.fed.config().rounds;
        self.ensure_state();
        while self.state.as_ref().map_or(1, |s| s.next_round) <= horizon {
            self.step_round();
        }
        match self.state.as_ref() {
            Some(s) => s.history.clone(),
            None => unreachable!("ensure_state ran just above"),
        }
    }
}

impl SubFedAvgUn {
    /// Continues a restored (or partially run) state up to the configured
    /// round horizon, returning the history accumulated *since* the
    /// restore point.
    pub fn resume(&mut self) -> History {
        let horizon = self.fed.config().rounds;
        while self.ensure_state().next_round <= horizon {
            self.step_round();
        }
        self.ensure_state().history.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::tiny_federation;

    fn test_controller(target: f32) -> UnstructuredController {
        let mut controller = UnstructuredController::paper_defaults(target);
        controller.acc_threshold = 0.0;
        controller.rate = 0.2;
        controller
    }

    fn run_with_target(target: f32, rounds: usize) -> (SubFedAvgUn, History) {
        let fed = tiny_federation(rounds, 4);
        let mut algo = SubFedAvgUn::with_controller(fed, test_controller(target));
        let h = algo.run();
        (algo, h)
    }

    #[test]
    fn pruning_progresses_toward_target() {
        let (_, h) = run_with_target(0.5, 5);
        let sparsity = h.final_pruned_params();
        assert!(sparsity > 0.3, "sparsity only reached {sparsity}");
        assert!(sparsity <= 0.5 + 0.2 + 1e-5, "overshot target: {sparsity}");
        // Sparsity is non-decreasing over rounds.
        for w in h.records.windows(2) {
            assert!(w[1].avg_pruned_params >= w[0].avg_pruned_params - 1e-6);
        }
    }

    #[test]
    fn communication_is_cheaper_than_dense() {
        let fed = tiny_federation(5, 4);
        let num_params = fed.build_model().num_params() as u64;
        let k = fed.config().clients_per_round(4) as u64;
        let dense_total = 5 * k * num_params * 4 * 2;
        let (_, h) = run_with_target(0.5, 5);
        assert!(h.total_bytes() < dense_total, "masked {} >= dense {dense_total}", h.total_bytes());
    }

    #[test]
    fn personalized_accuracy_is_reasonable() {
        let (_, h) = run_with_target(0.3, 6);
        assert!(h.final_avg_acc() > 0.4, "accuracy {}", h.final_avg_acc());
    }

    #[test]
    fn deterministic() {
        let (_, h1) = run_with_target(0.5, 3);
        let (_, h2) = run_with_target(0.5, 3);
        assert_eq!(h1, h2);
    }

    #[test]
    fn rerun_resets_state() {
        let fed = tiny_federation(3, 4);
        let mut algo = SubFedAvgUn::with_controller(fed, test_controller(0.5));
        let h1 = algo.run();
        let h2 = algo.run();
        assert_eq!(h1, h2, "run() must reset state between runs");
    }

    #[test]
    fn ablation_options_change_behaviour() {
        let fed = tiny_federation(4, 4);
        let mut plain = SubFedAvgUn::with_controller(fed, test_controller(0.5))
            .with_options(SubFedAvgOptions { plain_average: true, ..Default::default() });
        let hp = plain.run();
        let (inter, hi) = run_with_target(0.5, 4);
        // Same comm pattern class, different aggregation -> different
        // global models. (The coarse per-client accuracies in `History`
        // can coincide on a federation this tiny, so compare θ_g, the
        // aggregation rule's direct output.)
        assert_eq!(hp.records.len(), hi.records.len());
        let global_plain = &plain.state.as_ref().expect("ran").global;
        let global_inter = &inter.state.as_ref().expect("ran").global;
        assert_ne!(global_plain, global_inter);
        // Fresh masks never accumulate sparsity beyond one step.
        let fed2 = tiny_federation(4, 4);
        let mut fresh = SubFedAvgUn::with_controller(fed2, test_controller(0.5))
            .with_options(SubFedAvgOptions { fresh_masks: true, ..Default::default() });
        let hf = fresh.run();
        assert!(hf.final_pruned_params() <= 0.2 + 1e-5);
    }

    #[test]
    fn lottery_rewind_completes_and_still_prunes() {
        let fed = tiny_federation(5, 4);
        let mut algo = SubFedAvgUn::with_controller(fed, test_controller(0.5))
            .with_options(SubFedAvgOptions { rewind_to_init: true, ..Default::default() });
        let h = algo.run();
        assert!(h.final_pruned_params() > 0.2, "sparsity {}", h.final_pruned_params());
        // Rewinding changes the trajectory relative to the default.
        let (_, plain) = run_with_target(0.5, 5);
        assert_ne!(h, plain);
    }

    #[test]
    fn trimmed_aggregation_changes_global_but_runs_clean() {
        let fed = tiny_federation(4, 4);
        let mut robust = SubFedAvgUn::with_controller(fed, test_controller(0.5))
            .with_options(SubFedAvgOptions { trim: 1, ..Default::default() });
        let h = robust.run();
        assert_eq!(h.records.len(), 4);
        assert!(h.final_avg_acc() > 0.3);
    }

    #[test]
    fn checkpoint_resume_reproduces_straight_run() {
        // Straight: 6 rounds. Split: 3 rounds -> checkpoint -> restore ->
        // 3 more. The server-persistent state (global + masks) must agree
        // exactly.
        let controller = test_controller(0.5);
        let mut straight = SubFedAvgUn::with_controller(tiny_federation(6, 4), controller);
        let _ = straight.run();
        let straight_ckpt = straight.checkpoint();

        let mut first = SubFedAvgUn::with_controller(tiny_federation(3, 4), controller);
        let _ = first.run();
        let mid = first.checkpoint();
        assert_eq!(mid.round, 3);

        let mut second = SubFedAvgUn::with_controller(tiny_federation(6, 4), controller);
        second.restore(&mid).expect("checkpoint fits the federation");
        let resumed_history = second.resume();
        let final_ckpt = second.checkpoint();

        assert_eq!(final_ckpt.round, 6);
        assert_eq!(final_ckpt.global, straight_ckpt.global, "global diverged after resume");
        assert_eq!(final_ckpt.client_masks, straight_ckpt.client_masks);
        // The resumed history covers rounds 4..=6 only.
        assert_eq!(resumed_history.records.len(), 3);
        assert_eq!(resumed_history.records[0].round, 4);
    }

    #[test]
    fn checkpoint_roundtrips_through_bytes() {
        let (algo, _) = run_with_target(0.5, 3);
        let ckpt = algo.checkpoint();
        let restored = Checkpoint::decode(&ckpt.encode()).unwrap();
        assert_eq!(restored, ckpt);
    }

    /// A checkpoint of a 2-round run on the 4-client test federation.
    fn valid_checkpoint() -> Checkpoint {
        run_with_target(0.5, 2).0.checkpoint()
    }

    /// Restores `ckpt` into a fresh 4-client run, returning the error.
    fn restore_err(ckpt: &Checkpoint) -> CheckpointError {
        let mut algo = SubFedAvgUn::with_controller(tiny_federation(4, 4), test_controller(0.5));
        let err = algo.restore(ckpt).expect_err("mismatched checkpoint restored");
        assert!(algo.state.is_none(), "a rejected restore must leave the state untouched");
        err
    }

    #[test]
    fn restore_rejects_a_model_size_mismatch() {
        let mut ckpt = valid_checkpoint();
        let n = ckpt.global.len();
        ckpt.global.pop();
        match restore_err(&ckpt) {
            CheckpointError::ModelSizeMismatch { expected, got } => {
                assert_eq!((expected, got), (n, n - 1))
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn restore_rejects_a_client_count_mismatch() {
        let mut ckpt = valid_checkpoint();
        ckpt.client_masks.push(ckpt.client_masks[0].clone());
        match restore_err(&ckpt) {
            CheckpointError::ClientCountMismatch { expected, got } => {
                assert_eq!((expected, got), (4, 5))
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn restore_rejects_short_and_long_client_masks() {
        let valid = valid_checkpoint();
        let n = valid.global.len();
        for (client, len) in [(1, n - 1), (3, n + 1)] {
            let mut ckpt = valid.clone();
            ckpt.client_masks[client].resize(len, 1.0);
            match restore_err(&ckpt) {
                CheckpointError::MaskLengthMismatch { client: c, expected, got } => {
                    assert_eq!((c, expected, got), (client, n, len))
                }
                other => panic!("wrong error: {other}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "checkpoint before any round")]
    fn checkpoint_requires_a_run() {
        let fed = tiny_federation(2, 4);
        let algo = SubFedAvgUn::new(fed, 0.5);
        let _ = algo.checkpoint();
    }

    #[test]
    fn name_includes_target() {
        let fed = tiny_federation(1, 4);
        assert_eq!(SubFedAvgUn::new(fed, 0.7).name(), "Sub-FedAvg (Un) 70%");
    }
}
