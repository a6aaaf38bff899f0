//! The registry-scale Sub-FedAvg driver: Algorithm 1 over a registered
//! population far larger than any round's cohort.
//!
//! [`crate::algorithms::SubFedAvgUn`] materializes per-client vectors
//! (`local_flats`, `masks`) for the *whole* federation and evaluates every
//! client every eval round — the right shape at the paper's 100 clients,
//! impossible at a million. [`ScaledSubFedAvg`] runs the same per-client
//! stages — the `algorithms::common` helpers for train, download, gate and
//! upload (encode → decode → invariants) — with the same byte/FLOP
//! accounting and trace events; only the pruning call between them and
//! what happens around them differ:
//!
//! * placement: a client's whole pipeline runs in its worker, where the
//!   classic drivers train in workers and run the later stages serially;
//! * per-client server state lives in a [`ClientRegistry`] (packed mask
//!   bits in a compact arena, implicit all-ones until a client first
//!   prunes);
//! * each round's cohort comes from the federation's `CohortSampler` via
//!   [`Federation::begin_round`] — the `frac`/C knob;
//! * client shards come from the federation's `ClientProvider`, so only
//!   the cohort is ever materialized;
//! * aggregation streams through an [`OrderedAccumulator`]: workers fold
//!   their own decoded upload on the way out in cohort-slot order, so the
//!   aggregate is bit-identical at every thread count and server memory
//!   stays O(model) instead of O(cohort × model);
//! * evaluation is cohort-local: each survivor's personalized test
//!   accuracy is measured by its own worker, and the round reports the
//!   cohort mean (evaluating the full registered population is exactly
//!   the O(registered) cost this driver exists to avoid).
//!
//! Clients are *stateless* between participations except for their mask:
//! they retrain from the masked global each time they are sampled, which
//! is the standard cross-device assumption (a phone that returns after a
//! month does not keep last month's weights). `docs/SCALING.md` walks
//! through the architecture and its memory model.

use crate::algorithms::common::{download, is_eval_round, record_gates, train_traced, upload};
use crate::checkpoint::CheckpointError;
use crate::registry::ClientRegistry;
use crate::stream_agg::OrderedAccumulator;
use crate::{evaluate_accuracy, flatten_mask, invariants, unflatten_mask, Federation};
use subfed_metrics::comm::pack_mask;
use subfed_metrics::trace::{self, TraceEvent};
use subfed_nn::{ModelMask, Sequential};
use subfed_pruning::UnstructuredController;

/// One worker's result: everything the serial write-back needs, sized
/// O(packed mask), never O(model) — the cohort's dense vectors die with
/// the workers that produced them.
struct CohortOutcome {
    /// Validation accuracy after local training.
    val_acc: f32,
    /// Personalized test accuracy (eval rounds only).
    test_acc: Option<f32>,
    /// `(packed mask, kept)` when the gate fired this round.
    new_mask: Option<(Vec<u8>, usize)>,
    /// Download + upload bytes charged to this client.
    bytes: u64,
}

/// One round of the scaled run, as reported to the caller.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaledRoundRecord {
    /// 1-based round number.
    pub round: usize,
    /// Sampled cohort size (before failure injection).
    pub cohort: usize,
    /// Clients that survived and completed the pipeline.
    pub survivors: usize,
    /// Mean validation accuracy over the surviving cohort.
    pub avg_val_acc: f32,
    /// Mean personalized test accuracy over the surviving cohort
    /// (evaluation rounds only).
    pub avg_test_acc: Option<f32>,
    /// Cumulative communication bytes after this round.
    pub cum_bytes: u64,
    /// Server aggregation memory this round: 2 × model × 4 bytes,
    /// independent of cohort size.
    pub agg_memory_bytes: usize,
}

/// End-of-run summary of a [`ScaledSubFedAvg`] drive.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaledSummary {
    /// Registered population size.
    pub registered: usize,
    /// Rounds executed.
    pub rounds: usize,
    /// Total communication bytes.
    pub cum_bytes: u64,
    /// Mean cohort validation accuracy of the final round.
    pub final_avg_val_acc: f32,
    /// Mean cohort test accuracy of the last evaluation round.
    pub final_avg_test_acc: Option<f32>,
    /// Registry residency: records plus the packed-mask arena.
    pub registry_memory_bytes: usize,
    /// Clients holding an explicit (ever-pruned) mask slot.
    pub allocated_masks: usize,
    /// Per-round records.
    pub records: Vec<ScaledRoundRecord>,
}

/// Sub-FedAvg (Un) against a client registry, sampled cohorts, and
/// streaming aggregation. See the module docs for how this differs from
/// the materialized driver.
#[derive(Debug)]
pub struct ScaledSubFedAvg {
    fed: Federation,
    controller: UnstructuredController,
    /// All-ones mask of the federation's model: the tensor layout each
    /// client's flat registry mask is cut into.
    layout: ModelMask,
    registry: ClientRegistry,
    global: Vec<f32>,
    cum_bytes: u64,
    next_round: usize,
    records: Vec<ScaledRoundRecord>,
}

impl ScaledSubFedAvg {
    /// Creates the driver over a federation (usually built with
    /// [`Federation::from_provider`]) and a pruning controller.
    pub fn new(fed: Federation, controller: UnstructuredController) -> Self {
        let model = fed.build_model();
        let registry = ClientRegistry::new(fed.num_clients(), model.num_params());
        Self::from_model(fed, controller, registry, &model)
    }

    /// Resumes from a cold-loaded registry (masks and participation
    /// counters carry over; the global and the round counter restart from
    /// θ₀ and round 1 unless the caller also restores them via
    /// [`ScaledSubFedAvg::restore`]).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::ClientCountMismatch`] when the registry's
    /// population differs from the federation's, or
    /// [`CheckpointError::ModelSizeMismatch`] when its mask length differs
    /// from the model's parameter count. A registry image is untrusted
    /// input: it may come from another federation or another model.
    #[must_use = "a dropped Result hides a registry that did not fit"]
    pub fn with_registry(
        fed: Federation,
        controller: UnstructuredController,
        registry: ClientRegistry,
    ) -> Result<Self, CheckpointError> {
        if registry.registered() != fed.num_clients() {
            return Err(CheckpointError::ClientCountMismatch {
                expected: fed.num_clients(),
                got: registry.registered(),
            });
        }
        let model = fed.build_model();
        if registry.mask_len() != model.num_params() {
            return Err(CheckpointError::ModelSizeMismatch {
                expected: model.num_params(),
                got: registry.mask_len(),
            });
        }
        Ok(Self::from_model(fed, controller, registry, &model))
    }

    /// Assembles the driver around `model`, the federation's θ₀, from
    /// which both the global and the mask layout are taken. The registry
    /// must fit the federation.
    fn from_model(
        fed: Federation,
        controller: UnstructuredController,
        registry: ClientRegistry,
        model: &Sequential,
    ) -> Self {
        let global = model.flatten();
        let layout = ModelMask::ones_for(model);
        Self {
            fed,
            controller,
            layout,
            registry,
            global,
            cum_bytes: 0,
            next_round: 1,
            records: Vec::new(),
        }
    }

    /// Cold-start restore of a run saved after round `after_round`:
    /// installs its `global` and makes the next
    /// [`step_round`](Self::step_round) run round `after_round + 1`, so
    /// cohort sampling and client seeds continue where the saved run
    /// stopped. Byte accounting restarts at zero.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::ModelSizeMismatch`] when `global` does not have
    /// the model's length; the driver is then left untouched.
    #[must_use = "a dropped Result hides a global that did not fit"]
    pub fn restore(&mut self, after_round: usize, global: Vec<f32>) -> Result<(), CheckpointError> {
        if global.len() != self.global.len() {
            return Err(CheckpointError::ModelSizeMismatch {
                expected: self.global.len(),
                got: global.len(),
            });
        }
        self.global = global;
        self.next_round = after_round + 1;
        Ok(())
    }

    /// The federation being driven.
    pub fn federation(&self) -> &Federation {
        &self.fed
    }

    /// The server-side client registry.
    pub fn registry(&self) -> &ClientRegistry {
        &self.registry
    }

    /// The current global parameters.
    pub fn global(&self) -> &[f32] {
        &self.global
    }

    /// Per-round records so far.
    pub fn records(&self) -> &[ScaledRoundRecord] {
        &self.records
    }

    /// Executes one communication round.
    pub fn step_round(&mut self) {
        let round = self.next_round;
        self.next_round += 1;
        let fed = &self.fed;
        let controller = self.controller;
        let round_span = fed.tracer().span();
        let ids = fed.begin_round(round);
        let cohort = fed.config().clients_per_round(fed.num_clients());
        let eval_due = is_eval_round(fed, round);
        if ids.is_empty() {
            // Everyone sampled crashed: nothing to train or aggregate.
            fed.tracer().emit(TraceEvent::RoundEnd {
                round,
                us: round_span.elapsed_us(),
                cum_bytes: self.cum_bytes,
                model_hash: trace::model_hash(&self.global),
            });
            self.records.push(ScaledRoundRecord {
                round,
                cohort,
                survivors: 0,
                avg_val_acc: 0.0,
                avg_test_acc: None,
                cum_bytes: self.cum_bytes,
                agg_memory_bytes: 0,
            });
            return;
        }
        let acc = OrderedAccumulator::new(self.global.len(), fed.config().threads.max(1));
        let registry = &self.registry;
        let layout = &self.layout;
        let global_ref = &self.global;
        // Workers are mapped over cohort *slots* (positions in `ids`), not
        // client ids: the slot is the upload's turn in the deterministic
        // fold order, and `par_map`'s strided schedule hands each worker
        // its slots ascending — the turnstile's progress precondition.
        let slots: Vec<usize> = (0..ids.len()).collect();
        let outcomes = fed.par_map(&slots, |slot| {
            // The whole client pipeline runs here, in the worker: the only
            // dense vectors alive are this worker's own, and the upload is
            // folded into the shared accumulator before the closure
            // returns.
            let i = ids[slot];
            let data = fed.client_data(i);
            // The registry stores masks of the model's length, so the
            // flat mask always fills the layout.
            let mask = unflatten_mask(layout, &registry.mask_flat(i));
            let out = train_traced(fed, round, i, global_ref, &data, Some(&mask), None);
            // Full model on first participation, while the mask is
            // implicitly all ones.
            let download = download(fed, round, i, registry.kept(i));
            // Pruning decision from the two weight snapshots.
            let prune_span = fed.tracer().span();
            let (new_mask, decision) = controller.step_explained_flat(
                &out.first_epoch_flat,
                &out.final_flat,
                &mask,
                out.val_acc,
            );
            record_gates(fed, round, i, out.val_acc, prune_span, &[("un", &decision)]);
            let mask_changed = new_mask.is_some();
            let flat_mask = flatten_mask(&new_mask.unwrap_or(mask));
            let mut final_flat = out.final_flat;
            let up = upload(fed, round, i, &mut final_flat, &flat_mask, mask_changed);
            // Each slot is handed in exactly once by the strided
            // schedule, with the lengths the decode invariant just
            // checked, so a rejection here is a driver bug.
            // lint: allow(no-unwrap)
            acc.fold(slot, up.params, up.mask).expect("strided slots fold exactly once");
            let test_acc = eval_due.then(|| {
                let mut model = fed.build_model();
                model.load_flat(&final_flat);
                evaluate_accuracy(&mut model, &data.test, 64)
            });
            CohortOutcome {
                val_acc: out.val_acc,
                test_acc,
                new_mask: mask_changed.then(|| (pack_mask(&flat_mask), up.kept)),
                bytes: download + up.bytes,
            }
        });
        // Serial write-back: registry updates and byte accounting in
        // survivor order, deterministic regardless of thread count.
        for (out, &i) in outcomes.iter().zip(ids.iter()) {
            self.registry.note_participation(i);
            if let Some((packed, kept)) = &out.new_mask {
                self.registry.set_mask_packed(i, packed, *kept);
            }
            self.cum_bytes += out.bytes;
        }
        let agg_span = fed.tracer().span();
        let streaming = acc.into_streaming();
        let updates = streaming.updates();
        invariants::enforce_with(fed.tracer(), round, "aggregate", || {
            invariants::check_streaming_coverage(streaming.counts(), updates)
        });
        let agg_memory_bytes = streaming.memory_bytes();
        self.global = streaming.finish(&self.global);
        fed.tracer().emit(TraceEvent::Aggregate { round, us: agg_span.elapsed_us(), updates });
        let avg_val_acc = outcomes.iter().map(|o| o.val_acc).sum::<f32>() / outcomes.len() as f32;
        let avg_test_acc = if eval_due {
            let eval_span = fed.tracer().span();
            let accs: Vec<f32> = outcomes.iter().filter_map(|o| o.test_acc).collect();
            let mean = accs.iter().sum::<f32>() / accs.len().max(1) as f32;
            fed.tracer().emit(TraceEvent::Eval {
                round,
                us: eval_span.elapsed_us(),
                avg_acc: mean,
            });
            Some(mean)
        } else {
            None
        };
        fed.tracer().emit(TraceEvent::RoundEnd {
            round,
            us: round_span.elapsed_us(),
            cum_bytes: self.cum_bytes,
            model_hash: trace::model_hash(&self.global),
        });
        self.records.push(ScaledRoundRecord {
            round,
            cohort,
            survivors: ids.len(),
            avg_val_acc,
            avg_test_acc,
            cum_bytes: self.cum_bytes,
            agg_memory_bytes,
        });
    }

    /// Drives the configured number of rounds and summarizes the run.
    pub fn run(&mut self) -> ScaledSummary {
        for _ in 0..self.fed.config().rounds {
            self.step_round();
        }
        ScaledSummary {
            registered: self.fed.num_clients(),
            rounds: self.records.len(),
            cum_bytes: self.cum_bytes,
            final_avg_val_acc: self.records.last().map(|r| r.avg_val_acc).unwrap_or(0.0),
            final_avg_test_acc: self.records.iter().rev().find_map(|r| r.avg_test_acc),
            registry_memory_bytes: self.registry.memory_bytes(),
            allocated_masks: self.registry.allocated_masks(),
            records: self.records.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FedConfig;
    use std::sync::Arc;
    use subfed_data::{SynthClientProvider, SynthProviderConfig, SynthVision};
    use subfed_nn::models::ModelSpec;

    fn scaled_driver(registered: usize, frac: f32, threads: usize) -> ScaledSubFedAvg {
        let synth = SynthVision::generate(subfed_data::SynthConfig {
            channels: 1,
            height: 16,
            width: 16,
            classes: 4,
            train_per_class: 4,
            test_per_class: 2,
            noise_std: 0.1,
            shift: 1,
            grid: 4,
            seed: 11,
        });
        let provider = SynthClientProvider::new(
            synth,
            SynthProviderConfig {
                num_clients: registered,
                labels_per_client: 2,
                train_per_label: 6,
                val_per_label: 3,
                test_per_label: 3,
                seed: 11,
            },
        );
        let config = FedConfig {
            rounds: 2,
            sample_frac: frac,
            local_epochs: 2,
            batch_size: 6,
            eval_every: 2,
            threads,
            ..Default::default()
        };
        let fed =
            Federation::from_provider(ModelSpec::cnn5(1, 16, 16, 4), Arc::new(provider), config);
        ScaledSubFedAvg::new(fed, UnstructuredController::paper_defaults(0.5))
    }

    #[test]
    fn scaled_run_trains_prunes_and_accounts() {
        let mut driver = scaled_driver(200, 0.03, 2);
        let summary = driver.run();
        assert_eq!(summary.rounds, 2);
        assert_eq!(summary.registered, 200);
        assert!(summary.cum_bytes > 0);
        // The cohort is ~6 of 200: only sampled clients may own arena
        // slots.
        assert!(summary.allocated_masks <= 2 * 6 * 2);
        assert!(summary.final_avg_test_acc.is_some(), "round 2 is an eval round");
        // O(model) aggregation: 2 × params × 4 bytes, cohort-independent.
        let model_params = driver.federation().init_global().len();
        for r in driver.records() {
            assert_eq!(r.agg_memory_bytes, 2 * model_params * 4);
        }
    }

    #[test]
    fn scaled_run_is_deterministic_single_threaded() {
        let a = scaled_driver(100, 0.05, 1).run();
        let b = scaled_driver(100, 0.05, 1).run();
        assert_eq!(a, b);
    }

    #[test]
    fn scaled_run_is_bit_identical_across_thread_counts() {
        // The ordered fold makes the *entire run* — global parameters,
        // accuracies, byte accounting — reproduce exactly at any worker
        // count, not just within f32 tolerance.
        let mut one = scaled_driver(100, 0.05, 1);
        let mut two = scaled_driver(100, 0.05, 2);
        let mut three = scaled_driver(100, 0.05, 3);
        let (a, b, c) = (one.run(), two.run(), three.run());
        assert_eq!(a, b, "1 vs 2 workers");
        assert_eq!(a, c, "1 vs 3 workers");
        assert_eq!(one.global(), two.global(), "global θ_g must match bit-for-bit");
        assert_eq!(one.global(), three.global(), "global θ_g must match bit-for-bit");
    }

    #[test]
    fn kept_counts_never_regrow() {
        let mut driver = scaled_driver(60, 0.1, 2);
        let model_params = driver.federation().init_global().len();
        let mut floor = vec![model_params; 60];
        for _ in 0..2 {
            driver.step_round();
            for (id, f) in floor.iter_mut().enumerate() {
                let kept = driver.registry().kept(id);
                assert!(kept <= *f, "client {id} regrew {kept} > {f}");
                *f = kept;
            }
        }
    }

    #[test]
    fn registry_survives_cold_reload() {
        let mut driver = scaled_driver(80, 0.1, 1);
        driver.step_round();
        let image = driver.registry().save();
        let restored = ClientRegistry::load(&image).expect("reload");
        let fed2 = scaled_driver(80, 0.1, 1).fed;
        let mut resumed = ScaledSubFedAvg::with_registry(
            fed2,
            UnstructuredController::paper_defaults(0.5),
            restored,
        )
        .expect("the registry fits the federation");
        resumed.restore(1, driver.global().to_vec()).expect("the global fits the model");
        assert_eq!(resumed.global(), driver.global());
        for id in 0..80 {
            assert_eq!(resumed.registry().kept(id), driver.registry().kept(id));
        }
    }

    /// `with_registry` over an 80-client federation with `registry`,
    /// returning the error.
    fn with_registry_err(registry: ClientRegistry) -> CheckpointError {
        let fed = scaled_driver(80, 0.1, 1).fed;
        let controller = UnstructuredController::paper_defaults(0.5);
        match ScaledSubFedAvg::with_registry(fed, controller, registry) {
            Ok(_) => panic!("mismatched registry accepted"),
            Err(e) => e,
        }
    }

    #[test]
    fn with_registry_rejects_a_population_mismatch() {
        let params = scaled_driver(80, 0.1, 1).global().len();
        match with_registry_err(ClientRegistry::new(81, params)) {
            CheckpointError::ClientCountMismatch { expected, got } => {
                assert_eq!((expected, got), (80, 81))
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn with_registry_rejects_a_mask_length_mismatch() {
        let params = scaled_driver(80, 0.1, 1).global().len();
        match with_registry_err(ClientRegistry::new(80, params + 1)) {
            CheckpointError::ModelSizeMismatch { expected, got } => {
                assert_eq!((expected, got), (params, params + 1))
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn resumed_run_hashes_equal_a_straight_run() {
        for threads in [1, 2] {
            let mut straight = scaled_driver(80, 0.1, threads);
            let straight_hashes: Vec<u64> = (0..3)
                .map(|_| {
                    straight.step_round();
                    trace::model_hash(straight.global())
                })
                .collect();

            let mut first = scaled_driver(80, 0.1, threads);
            first.step_round();
            let registry = ClientRegistry::load(&first.registry().save()).expect("reload");
            let mut resumed = ScaledSubFedAvg::with_registry(
                scaled_driver(80, 0.1, threads).fed,
                UnstructuredController::paper_defaults(0.5),
                registry,
            )
            .expect("the registry fits the federation");
            resumed.restore(1, first.global().to_vec()).expect("the global fits the model");
            let mut hashes = vec![trace::model_hash(first.global())];
            for _ in 0..2 {
                resumed.step_round();
                hashes.push(trace::model_hash(resumed.global()));
            }
            assert_eq!(hashes, straight_hashes, "{threads} worker(s)");
            let rounds: Vec<usize> = resumed.records().iter().map(|r| r.round).collect();
            assert_eq!(rounds, [2, 3], "{threads} worker(s)");
        }
    }

    #[test]
    fn restore_rejects_a_length_mismatch_and_keeps_the_driver() {
        let mut driver = scaled_driver(80, 0.1, 1);
        let before = driver.global().to_vec();
        let n = before.len();
        for len in [n - 1, n + 1] {
            match driver.restore(5, vec![0.5; len]) {
                Err(CheckpointError::ModelSizeMismatch { expected, got }) => {
                    assert_eq!((expected, got), (n, len))
                }
                other => panic!("wrong result: {other:?}"),
            }
            assert_eq!(driver.global(), before.as_slice(), "a rejected global must not land");
        }
        driver.step_round();
        assert_eq!(driver.records()[0].round, 1, "a rejected restore must not move the round");
    }
}
