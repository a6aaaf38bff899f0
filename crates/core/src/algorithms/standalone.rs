//! The Standalone benchmark: every client trains purely locally — no
//! federation, no communication. Under pathological non-IID this is a
//! surprisingly strong baseline (each client solves a 2-class problem),
//! which is exactly the paper's point about traditional FedAvg.

use super::common::{record_round, train_traced};
use crate::{FedConfig, FederatedAlgorithm, Federation, History};
use subfed_metrics::trace::TraceEvent;

/// Local-only training (Table 1's "Standalone" row).
#[derive(Debug, Clone)]
pub struct Standalone {
    fed: Federation,
}

impl Standalone {
    /// Creates the benchmark over a federation (whose sampling fraction is
    /// ignored: every client trains every round, with zero communication).
    pub fn new(fed: Federation) -> Self {
        Self { fed }
    }

    /// The shared configuration.
    pub fn config(&self) -> &FedConfig {
        self.fed.config()
    }
}

impl FederatedAlgorithm for Standalone {
    fn name(&self) -> String {
        "Standalone".to_string()
    }

    fn run(&mut self) -> History {
        let fed = &self.fed;
        let init = fed.init_global();
        let mut local_flats: Vec<Vec<f32>> = vec![init; fed.num_clients()];
        let mut history = History::new();
        let all: Vec<usize> = (0..fed.num_clients()).collect();
        for round in 1..=fed.config().rounds {
            let round_span = fed.tracer().span();
            // With failure injection a crashed client simply skips its
            // local epochs this round. Standalone bypasses cohort sampling
            // (every client trains), so the round is opened here rather
            // than through `Federation::begin_round`.
            let ids = fed.survivors(round, &all);
            if fed.tracer().is_enabled() {
                fed.tracer().emit(TraceEvent::RoundStart {
                    round,
                    sampled: all.clone(),
                    survivors: ids.clone(),
                    registered: fed.num_clients(),
                    cohort_size: all.len(),
                });
                for &client in all.iter().filter(|c| !ids.contains(c)) {
                    fed.tracer().emit(TraceEvent::Dropout {
                        round,
                        client,
                        reason: "crash-injected".to_string(),
                    });
                }
            }
            let flats = &local_flats;
            let outcomes = fed.par_map(&ids, |i| {
                train_traced(fed, round, i, &flats[i], &fed.client_data(i), None, None)
            });
            for (out, &i) in outcomes.into_iter().zip(ids.iter()) {
                local_flats[i] = out.final_flat;
            }
            record_round(
                &mut history,
                fed,
                round,
                &local_flats,
                0,
                // Standalone has no server model; 0 = "not recorded".
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
    fn standalone_learns_local_tasks_with_zero_comm() {
        let fed = tiny_federation(6, 4);
        let mut algo = Standalone::new(fed);
        let h = algo.run();
        assert_eq!(h.total_bytes(), 0);
        // Local 2-class problems are easy: accuracy should clearly beat
        // the 4-class chance level.
        assert!(h.final_avg_acc() > 0.4, "accuracy {}", h.final_avg_acc());
        assert_eq!(h.records.len(), 6);
    }

    #[test]
    fn standalone_is_deterministic() {
        let h1 = Standalone::new(tiny_federation(2, 4)).run();
        let h2 = Standalone::new(tiny_federation(2, 4)).run();
        assert_eq!(h1, h2);
    }
}
