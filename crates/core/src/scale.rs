//! The registry-scale Sub-FedAvg driver: Algorithm 1 over a registered
//! population far larger than any round's cohort.
//!
//! [`crate::algorithms::SubFedAvgUn`] materializes per-client vectors
//! (`local_flats`, `masks`) for the *whole* federation and evaluates every
//! client every eval round — the right shape at the paper's 100 clients,
//! impossible at a million. [`ScaledSubFedAvg`] keeps the same per-round
//! client pipeline (train → download accounting → prune → gate → encode →
//! decode → upload) and the same byte/FLOP accounting, but:
//!
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

use crate::algorithms::common::{apply_flat_mask, is_eval_round, kept_count};
use crate::registry::ClientRegistry;
use crate::stream_agg::OrderedAccumulator;
use crate::{
    evaluate_accuracy, flatten_mask, invariants, train_client_ws, unflatten_mask, wire, Federation,
};
use subfed_metrics::comm::{mask_bytes, masked_transfer_bytes, pack_mask};
use subfed_metrics::flops;
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
    /// counters carry over; the global restarts from θ₀ unless the caller
    /// also restores it via [`ScaledSubFedAvg::set_global`]).
    ///
    /// # Panics
    ///
    /// Panics if the registry's population or model size disagrees with
    /// the federation.
    pub fn with_registry(
        fed: Federation,
        controller: UnstructuredController,
        registry: ClientRegistry,
    ) -> Self {
        let model = fed.build_model();
        Self::from_model(fed, controller, registry, &model)
    }

    /// Assembles the driver around `model`, the federation's θ₀, from
    /// which both the global and the mask layout are taken.
    fn from_model(
        fed: Federation,
        controller: UnstructuredController,
        registry: ClientRegistry,
        model: &Sequential,
    ) -> Self {
        let global = model.flatten();
        assert_eq!(registry.registered(), fed.num_clients(), "registry population mismatch");
        assert_eq!(registry.mask_len(), global.len(), "registry model size mismatch");
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

    /// Overwrites the server's global parameters (cold-start restore).
    ///
    /// # Panics
    ///
    /// Panics on a length mismatch.
    pub fn set_global(&mut self, global: Vec<f32>) {
        assert_eq!(global.len(), self.global.len(), "global length mismatch");
        self.global = global;
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
        let dense_flops = flops::dense_flops(fed.spec());
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
            let mask_flat_before = registry.mask_flat(i);
            // The registry stores masks of the model's length, so the
            // flat mask always fills the layout.
            let mask = unflatten_mask(layout, &mask_flat_before);
            let train_span = fed.tracer().span();
            let mut ws = fed.workspace();
            let out = train_client_ws(
                fed.spec(),
                global_ref,
                &data,
                fed.config(),
                Some(&mask),
                None,
                fed.client_seed(round, i),
                &mut ws,
            );
            fed.tracer().emit(TraceEvent::ClientTrain {
                round,
                client: i,
                us: train_span.elapsed_us(),
                val_acc: out.val_acc,
                train_loss: out.mean_train_loss,
                effective_flops: flops::effective_flops(fed.spec(), &mask),
                dense_flops,
            });
            // Download cost: the masked global under the client's mask as
            // of the start of the round (full model on first
            // participation, while the mask is implicitly all ones).
            let download = masked_transfer_bytes(registry.kept(i));
            fed.tracer().emit(TraceEvent::Download { round, client: i, bytes: download });
            // Pruning decision from the two weight snapshots.
            let prune_span = fed.tracer().span();
            let (new_mask, decision) = controller.step_explained_flat(
                &out.first_epoch_flat,
                &out.final_flat,
                &mask,
                out.val_acc,
            );
            invariants::enforce_with(fed.tracer(), round, &format!("gate client {i}"), || {
                decision.mask_distance.map_or(Ok(()), invariants::check_hamming_domain)
            });
            let mask_changed = new_mask.is_some();
            let mask_after = new_mask.unwrap_or(mask);
            if fed.tracer().is_enabled() {
                fed.tracer().emit(TraceEvent::ClientPrune {
                    round,
                    client: i,
                    us: prune_span.elapsed_us(),
                });
                fed.tracer().emit(TraceEvent::PruneGate {
                    round,
                    client: i,
                    track: "un".to_string(),
                    fired: decision.reason.fired(),
                    reason: decision.reason.as_str().to_string(),
                    val_acc: out.val_acc,
                    mask_distance: decision.mask_distance,
                    pruned_fraction: decision.pruned_fraction,
                });
            }
            let flat_mask = flatten_mask(&mask_after);
            // θ_k^{j+1} = θ_k^{j,le} ⊙ m_k (Algorithm 1, line 15).
            let mut final_flat = out.final_flat;
            apply_flat_mask(&mut final_flat, &flat_mask);
            let kept = kept_count(&flat_mask);
            let mut upload = masked_transfer_bytes(kept);
            if mask_changed {
                upload += mask_bytes(flat_mask.len());
            }
            // The upload goes through the real wire codec, and the decoded
            // tuple — not the worker's local copy — is what reaches the
            // accumulator, same trust boundary as the materialized driver.
            let enc_span = fed.tracer().span();
            let buf = wire::encode_update(&final_flat, &flat_mask);
            fed.tracer().emit(TraceEvent::Encode {
                round,
                client: i,
                us: enc_span.elapsed_us(),
                bytes: buf.len() as u64,
                kept,
            });
            let dec_span = fed.tracer().span();
            // The buffer was produced by `encode_update` above, so decoding
            // cannot fail; a failure here is a codec bug.
            let (dec_params, dec_mask) =
                // lint: allow(no-unwrap)
                wire::decode_update(&buf).expect("self-encoded update decodes");
            invariants::enforce_with(fed.tracer(), round, &format!("decode client {i}"), || {
                invariants::check_update_shape(&dec_params, &dec_mask, flat_mask.len())?;
                invariants::check_mask_binary(&dec_mask)
            });
            fed.tracer().emit(TraceEvent::Decode {
                round,
                client: i,
                us: dec_span.elapsed_us(),
                bytes: buf.len() as u64,
            });
            fed.tracer().emit(TraceEvent::Upload { round, client: i, bytes: upload });
            // Each slot is handed in exactly once by the strided
            // schedule, with the lengths the decode invariant just
            // checked, so a rejection here is a driver bug.
            // lint: allow(no-unwrap)
            acc.fold(slot, dec_params, dec_mask).expect("strided slots fold exactly once");
            let test_acc = eval_due.then(|| {
                let mut model = fed.build_model();
                model.load_flat(&final_flat);
                evaluate_accuracy(&mut model, &data.test, 64)
            });
            CohortOutcome {
                val_acc: out.val_acc,
                test_acc,
                new_mask: mask_changed.then(|| (pack_mask(&flat_mask), kept)),
                bytes: download + upload,
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
        let resumed = ScaledSubFedAvg::with_registry(
            fed2,
            UnstructuredController::paper_defaults(0.5),
            restored,
        );
        for id in 0..80 {
            assert_eq!(resumed.registry().kept(id), driver.registry().kept(id));
        }
    }
}
