//! LG-FedAvg (Liang et al. 2020): "think locally, act globally".
//!
//! Every client keeps its *representation* layers (conv + BatchNorm)
//! private and shares only the fully-connected head, which the server
//! averages. Communication therefore carries only the FC parameters — for
//! the paper's architectures that is still the bulk of the model (fc1
//! dominates), matching Table 1 where LG-FedAvg's cost is slightly below
//! FedAvg's.

use super::common::{record_round, train_traced};
use crate::{FederatedAlgorithm, Federation, History};
use subfed_metrics::trace::TraceEvent;
use subfed_nn::ParamKind;

/// LG-FedAvg (Table 1's "LG-FedAvg" row).
#[derive(Debug, Clone)]
pub struct LgFedAvg {
    fed: Federation,
    /// Flat ranges `(offset, len)` of the globally shared (FC) parameters.
    head: Vec<(usize, usize)>,
}

impl LgFedAvg {
    /// Creates an LG-FedAvg run.
    pub fn new(fed: Federation) -> Self {
        let head = fed
            .build_model()
            .metas()
            .iter()
            .filter(|m| matches!(m.kind, ParamKind::FcWeight | ParamKind::FcBias))
            .map(|m| (m.offset, m.len))
            .collect();
        Self { fed, head }
    }

    /// Number of scalars in the shared head.
    pub fn head_params(&self) -> usize {
        self.head.iter().map(|(_, len)| len).sum()
    }

    fn copy_head(&self, dst: &mut [f32], src: &[f32]) {
        for &(off, len) in &self.head {
            dst[off..off + len].copy_from_slice(&src[off..off + len]);
        }
    }
}

impl FederatedAlgorithm for LgFedAvg {
    fn name(&self) -> String {
        "LG-FedAvg".to_string()
    }

    fn run(&mut self) -> History {
        let fed = &self.fed;
        let init = fed.init_global();
        // Per-client full models (local representations live here)...
        let mut local_flats: Vec<Vec<f32>> = vec![init.clone(); fed.num_clients()];
        // ...and the single shared head.
        let mut global_head = init;
        let mut history = History::new();
        let mut cum_bytes = 0u64;
        let head_bytes = self.head_params() as u64 * 4;
        for round in 1..=fed.config().rounds {
            let round_span = fed.tracer().span();
            let ids = fed.begin_round(round);
            let locals = &local_flats;
            let head_ranges = &self.head;
            let global_ref = &global_head;
            let outcomes = fed.par_map(&ids, |i| {
                // Download: overwrite the head with the global head, keep
                // the local representation.
                let mut start = locals[i].clone();
                for &(off, len) in head_ranges {
                    start[off..off + len].copy_from_slice(&global_ref[off..off + len]);
                }
                train_traced(fed, round, i, &start, &fed.client_data(i), None, None)
            });
            // Upload: average the heads, weighted by sample count. A round
            // nobody survived keeps the previous head.
            if !ids.is_empty() {
                let agg_span = fed.tracer().span();
                let total: usize = ids.iter().map(|&i| fed.client_data(i).train.len()).sum();
                let mut new_head = vec![0.0f32; global_head.len()];
                for (out, &i) in outcomes.iter().zip(ids.iter()) {
                    let w = fed.client_data(i).train.len() as f32 / total as f32;
                    for &(off, len) in &self.head {
                        for (dst, &src) in
                            new_head[off..off + len].iter_mut().zip(&out.final_flat[off..off + len])
                        {
                            *dst += w * src;
                        }
                    }
                }
                self.copy_head(&mut global_head, &new_head);
                fed.tracer().emit(TraceEvent::Aggregate {
                    round,
                    us: agg_span.elapsed_us(),
                    updates: ids.len(),
                });
            }
            for (out, &i) in outcomes.into_iter().zip(ids.iter()) {
                fed.tracer().emit(TraceEvent::Download { round, client: i, bytes: head_bytes });
                fed.tracer().emit(TraceEvent::Upload { round, client: i, bytes: head_bytes });
                local_flats[i] = out.final_flat;
            }
            cum_bytes += ids.len() as u64 * head_bytes * 2;
            record_round(
                &mut history,
                fed,
                round,
                &local_flats,
                cum_bytes,
                // LG-FedAvg's server model is the shared head.
                subfed_metrics::trace::model_hash(&global_head),
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
    fn comm_cost_counts_head_only() {
        let fed = tiny_federation(3, 4);
        let total_params = fed.build_model().num_params() as u64;
        let k = fed.config().clients_per_round(4) as u64;
        let mut algo = LgFedAvg::new(fed);
        let head = algo.head_params() as u64;
        assert!(head < total_params);
        assert!(head > 0);
        let h = algo.run();
        assert_eq!(h.total_bytes(), 3 * k * head * 4 * 2);
    }

    #[test]
    fn head_ranges_cover_fc_params_exactly() {
        let fed = tiny_federation(1, 4);
        let model = fed.build_model();
        let fc_total: usize = model
            .params()
            .iter()
            .filter(|p| matches!(p.kind, ParamKind::FcWeight | ParamKind::FcBias))
            .map(|p| p.len())
            .sum();
        let algo = LgFedAvg::new(fed);
        assert_eq!(algo.head_params(), fc_total);
    }

    #[test]
    fn local_representations_stay_personal() {
        // After a round, two participating clients share their head but
        // not their conv weights.
        let fed = tiny_federation(1, 4);
        let mut cfg = *fed.config();
        cfg.sample_frac = 1.0;
        let fed = crate::Federation::new(*fed.spec(), fed.materialized_clients(), cfg);
        let mut algo = LgFedAvg::new(fed);
        let h = algo.run();
        assert_eq!(h.records.len(), 1);
        // Accuracy is personalized (local models), so it can exceed what a
        // single global model achieves on heterogeneous tests; just check
        // the run produced sane numbers.
        assert!(h.final_avg_acc() > 0.0);
    }

    #[test]
    fn deterministic() {
        let h1 = LgFedAvg::new(tiny_federation(2, 4)).run();
        let h2 = LgFedAvg::new(tiny_federation(2, 4)).run();
        assert_eq!(h1, h2);
    }
}
