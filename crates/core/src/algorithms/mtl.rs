//! Federated multi-task learning (the paper's "MTL" baseline, after Smith
//! et al. 2017).
//!
//! Each client learns its own model (one task per client); tasks are
//! coupled by a quadratic penalty pulling every participant toward the
//! participant mean — a simplified MOCHA-style relationship that keeps the
//! defining cost profile: every participant exchanges full models with the
//! cohort (upload its own, download every peer's), which is why MTL is by
//! far the most expensive row of Table 1.

use super::common::{record_round, train_traced};
use crate::{FederatedAlgorithm, Federation, History};
use subfed_metrics::comm::{dense_transfer_bytes, mtl_run_bytes};
use subfed_metrics::trace::TraceEvent;

/// Federated MTL (Table 1's "MTL" row).
#[derive(Debug, Clone)]
pub struct FedMtl {
    fed: Federation,
    coupling: f32,
}

impl FedMtl {
    /// Creates a federated-MTL run with task-coupling strength `coupling`
    /// (the quadratic pull toward the cohort mean).
    ///
    /// # Panics
    ///
    /// Panics if `coupling < 0`.
    pub fn new(fed: Federation, coupling: f32) -> Self {
        assert!(coupling >= 0.0, "coupling must be non-negative");
        Self { fed, coupling }
    }
}

impl FederatedAlgorithm for FedMtl {
    fn name(&self) -> String {
        "MTL".to_string()
    }

    fn run(&mut self) -> History {
        let fed = &self.fed;
        let init = fed.init_global();
        let num_params = init.len();
        let mut local_flats: Vec<Vec<f32>> = vec![init; fed.num_clients()];
        let mut history = History::new();
        let mut last_bytes = 0u64;
        for round in 1..=fed.config().rounds {
            let round_span = fed.tracer().span();
            // A round nobody survived trains and exchanges nothing.
            let ids = fed.begin_round(round);
            // Cohort mean of the sampled tasks — the coupling anchor.
            let mut mean = vec![0.0f32; num_params];
            for &i in &ids {
                for (m, &v) in mean.iter_mut().zip(local_flats[i].iter()) {
                    *m += v / ids.len() as f32;
                }
            }
            let locals = &local_flats;
            let mean_ref = &mean;
            let coupling = self.coupling;
            let outcomes = fed.par_map(&ids, |i| {
                let prox = (coupling > 0.0).then_some((mean_ref.as_slice(), coupling));
                train_traced(fed, round, i, &locals[i], &fed.client_data(i), None, prox)
            });
            let dense = dense_transfer_bytes(num_params);
            for (out, &i) in outcomes.into_iter().zip(ids.iter()) {
                // All-pairs exchange: each participant uploads its model
                // once and downloads every cohort model.
                fed.tracer().emit(TraceEvent::Upload { round, client: i, bytes: dense });
                fed.tracer().emit(TraceEvent::Download {
                    round,
                    client: i,
                    bytes: dense * ids.len() as u64,
                });
                local_flats[i] = out.final_flat;
            }
            // One round's all-pairs exchange for this cohort size.
            last_bytes += mtl_run_bytes(1, ids.len() as u64, num_params);
            record_round(
                &mut history,
                fed,
                round,
                &local_flats,
                last_bytes,
                // MTL keeps no server model; 0 = "not recorded".
                0,
                0.0,
                0.0,
                Vec::new(),
                round_span,
            );
        }
        history
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::tiny_federation;

    #[test]
    fn mtl_is_most_expensive() {
        let fed = tiny_federation(3, 4);
        let num_params = fed.build_model().num_params() as u64;
        let k = fed.config().clients_per_round(4) as u64;
        let mut algo = FedMtl::new(fed, 0.1);
        let h = algo.run();
        let fedavg_cost = 3 * k * num_params * 4 * 2;
        assert_eq!(h.total_bytes(), 3 * k * (1 + k) * num_params * 4);
        assert!(h.total_bytes() > fedavg_cost);
    }

    #[test]
    fn mtl_produces_personalized_accuracies() {
        let mut algo = FedMtl::new(tiny_federation(3, 4), 0.1);
        let h = algo.run();
        assert_eq!(h.records.len(), 3);
        let last = h.records.last().unwrap();
        assert_eq!(last.per_client_acc.len(), 4);
        assert!(last.per_client_acc.iter().all(|a| (0.0..=1.0).contains(a)));
    }

    #[test]
    fn deterministic() {
        let h1 = FedMtl::new(tiny_federation(2, 4), 0.1).run();
        let h2 = FedMtl::new(tiny_federation(2, 4), 0.1).run();
        assert_eq!(h1, h2);
    }

    #[test]
    #[should_panic(expected = "coupling must be non-negative")]
    fn negative_coupling_rejected() {
        let _ = FedMtl::new(tiny_federation(1, 4), -1.0);
    }
}
