//! Helpers shared by the algorithm implementations.
//!
//! The per-client pipeline every Sub-FedAvg driver runs — classic Un and
//! Hy as well as the registry-scale driver — is split into one helper per
//! stage, called in the protocol's phase order (`docs/PROTOCOL.md`):
//!
//! 1. [`train_traced`] — local training from the downloaded start point
//!    (`train`; the dense baselines use only this stage);
//! 2. [`download`] — the masked-global download charge (`download`);
//! 3. the driver's own pruning step, then [`record_gates`] (`prune`, one
//!    `prune_gate` per track);
//! 4. [`upload`] — mask, encode, decode and check the update (`encode`,
//!    `decode`, `upload`).
//!
//! Only the pruning step, the state write-back and aggregation differ
//! between drivers, so a change to the wire path, the gate invariants or
//! the trace schema happens here, once.

use crate::{invariants, train_client_ws, wire, Federation, History, LocalOutcome, RoundRecord};
use subfed_data::ClientData;
use subfed_metrics::comm::{mask_bytes, masked_transfer_bytes};
use subfed_metrics::flops;
use subfed_metrics::trace::{Span, TraceEvent};
use subfed_nn::ModelMask;
use subfed_pruning::GateDecision;

/// Whether `round` (1-based) is an evaluation round.
pub(crate) fn is_eval_round(fed: &Federation, round: usize) -> bool {
    round.is_multiple_of(fed.config().eval_every) || round == fed.config().rounds
}

/// Evaluates every client's flat model (when due) and appends the round
/// record. `round_span` is the span opened at the top of the round; it
/// closes here with the round's `eval` (when due) and `round_end` trace
/// events. `model_hash` is the server model's post-aggregation
/// fingerprint ([`subfed_metrics::trace::model_hash`]); algorithms with
/// no server-side model (standalone, MTL) pass `0` ("not recorded").
#[allow(clippy::too_many_arguments)]
pub(crate) fn record_round(
    history: &mut History,
    fed: &Federation,
    round: usize,
    flats: &[Vec<f32>],
    cum_bytes: u64,
    model_hash: u64,
    avg_pruned_params: f32,
    avg_pruned_channels: f32,
    per_client_pruned: Vec<f32>,
    round_span: Span,
) {
    let (avg_acc, per_client_acc) = if is_eval_round(fed, round) {
        let eval_span = fed.tracer().span();
        let accs = fed.evaluate_clients(flats);
        let mean = accs.iter().sum::<f32>() / accs.len() as f32;
        fed.tracer().emit(TraceEvent::Eval { round, us: eval_span.elapsed_us(), avg_acc: mean });
        (Some(mean), accs)
    } else {
        (None, Vec::new())
    };
    fed.tracer().emit(TraceEvent::RoundEnd {
        round,
        us: round_span.elapsed_us(),
        cum_bytes,
        model_hash,
    });
    history.push(RoundRecord {
        round,
        avg_acc,
        per_client_acc,
        per_client_pruned,
        cum_bytes,
        avg_pruned_params,
        avg_pruned_channels,
    });
}

/// Applies a flat 0/1 mask to a flat parameter vector in place.
pub(crate) fn apply_flat_mask(flat: &mut [f32], mask: &[f32]) {
    debug_assert_eq!(flat.len(), mask.len());
    for (v, &m) in flat.iter_mut().zip(mask.iter()) {
        *v *= m;
    }
}

/// Number of kept (non-zero) entries of a flat mask.
pub(crate) fn kept_count(mask: &[f32]) -> usize {
    mask.iter().filter(|&&m| subfed_nn::is_kept(m)).count()
}

/// Trains `client` for `round` from `start` on a pooled workspace and
/// emits its `client_train` event. `effective_flops` is the per-kept-weight
/// work of `mask`'s subnetwork, or the dense work without a mask.
pub(crate) fn train_traced(
    fed: &Federation,
    round: usize,
    client: usize,
    start: &[f32],
    data: &ClientData,
    mask: Option<&ModelMask>,
    prox: Option<(&[f32], f32)>,
) -> LocalOutcome {
    let span = fed.tracer().span();
    let mut ws = fed.workspace();
    let seed = fed.client_seed(round, client);
    let out = train_client_ws(fed.spec(), start, data, fed.config(), mask, prox, seed, &mut ws);
    let dense_flops = flops::dense_flops(fed.spec());
    fed.tracer().emit(TraceEvent::ClientTrain {
        round,
        client,
        us: span.elapsed_us(),
        val_acc: out.val_acc,
        train_loss: out.mean_train_loss,
        effective_flops: mask.map_or(dense_flops, |m| flops::effective_flops(fed.spec(), m)),
        dense_flops,
    });
    out
}

/// Emits the `download` of the masked global — `kept` parameters under the
/// client's mask as of the start of the round — and returns its bytes for
/// the caller to charge. Runs after [`train_traced`] and before the
/// pruning step, as the phase machine requires.
pub(crate) fn download(fed: &Federation, round: usize, client: usize, kept: usize) -> u64 {
    let bytes = masked_transfer_bytes(kept);
    fed.tracer().emit(TraceEvent::Download { round, client, bytes });
    bytes
}

/// Closes a client's pruning step: checks every computed Δ against the
/// Hamming domain (a non-finite accuracy is tolerated — the controllers
/// are NaN-safe and hold the gate), then emits `client_prune` and one
/// `prune_gate` per `(track, decision)`, in order.
pub(crate) fn record_gates(
    fed: &Federation,
    round: usize,
    client: usize,
    val_acc: f32,
    prune_span: Span,
    gates: &[(&str, &GateDecision)],
) {
    invariants::enforce_with(fed.tracer(), round, &format!("gate client {client}"), || {
        gates
            .iter()
            .filter_map(|(_, d)| d.mask_distance)
            .try_for_each(invariants::check_hamming_domain)
    });
    if fed.tracer().is_enabled() {
        fed.tracer().emit(TraceEvent::ClientPrune { round, client, us: prune_span.elapsed_us() });
        for &(track, d) in gates {
            fed.tracer().emit(TraceEvent::PruneGate {
                round,
                client,
                track: track.to_string(),
                fired: d.reason.fired(),
                reason: d.reason.as_str().to_string(),
                val_acc,
                mask_distance: d.mask_distance,
                pruned_fraction: d.pruned_fraction,
            });
        }
    }
}

/// A client's upload as the server received it.
pub(crate) struct Upload {
    /// Kept parameters under the uploaded mask.
    pub(crate) kept: usize,
    /// Decoded masked parameters.
    pub(crate) params: Vec<f32>,
    /// Decoded flat 0/1 mask.
    pub(crate) mask: Vec<f32>,
    /// Bytes charged: the kept parameters, plus the packed mask when it
    /// changed this round.
    pub(crate) bytes: u64,
}

/// Uploads θ_k ⊙ m_k (Algorithm 1, line 15): masks `final_flat` in place,
/// then sends it through the real wire codec and returns the *decoded*
/// tuple — the server aggregates what it received, not the client's copy.
/// The codec is lossless (bit round-trip of kept f32s), so this does not
/// perturb training; `bytes` stays on the analytical `comm` model while
/// `encode`/`decode` report the real buffer length.
pub(crate) fn upload(
    fed: &Federation,
    round: usize,
    client: usize,
    final_flat: &mut [f32],
    mask: &[f32],
    mask_changed: bool,
) -> Upload {
    apply_flat_mask(final_flat, mask);
    let kept = kept_count(mask);
    let mut bytes = masked_transfer_bytes(kept);
    if mask_changed {
        bytes += mask_bytes(mask.len());
    }
    let enc_span = fed.tracer().span();
    let buf = wire::encode_update(final_flat, mask);
    let buf_bytes = buf.len() as u64;
    fed.tracer().emit(TraceEvent::Encode {
        round,
        client,
        us: enc_span.elapsed_us(),
        bytes: buf_bytes,
        kept,
    });
    let dec_span = fed.tracer().span();
    // The buffer was produced by `encode_update` just above, so decoding
    // cannot fail; a failure here is a codec bug.
    // lint: allow(no-unwrap)
    let (params, dec_mask) = wire::decode_update(&buf).expect("self-encoded update decodes");
    // Decode boundary: the decoded update must fit the model and carry a
    // strictly binary mask.
    invariants::enforce_with(fed.tracer(), round, &format!("decode client {client}"), || {
        invariants::check_update_shape(&params, &dec_mask, mask.len())?;
        invariants::check_mask_binary(&dec_mask)
    });
    fed.tracer().emit(TraceEvent::Decode {
        round,
        client,
        us: dec_span.elapsed_us(),
        bytes: buf_bytes,
    });
    fed.tracer().emit(TraceEvent::Upload { round, client, bytes });
    Upload { kept, params, mask: dec_mask, bytes }
}
