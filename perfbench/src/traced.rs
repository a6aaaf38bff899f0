//! The traced run: per-layer metrics.
//!
//! The program's own trace events come from a `VecSink` attached through
//! `Federation::with_tracer`. Everything finer is timed from outside: the
//! run captures real workload state ahead of one round, replays that
//! round through the public functions of `data`, `nn`, `tensor`,
//! `pruning`, `core` and `metrics` with its own timers, and checks the
//! replay against the driver's `RoundEnd.model_hash`. Local training is
//! split per batch and per layer by a replay of `train_client_ws` that
//! must reproduce its `final_flat` bit for bit.

use std::sync::Arc;
use std::time::Instant;

use subfed_core::checkpoint::Checkpoint;
use subfed_core::{
    evaluate_accuracy, flatten_mask, subfedavg_aggregate, train_client_ws, wire, ClientRegistry,
    Federation, OrderedAccumulator, StreamingAccumulator,
};
use subfed_data::{
    partition_pathological, ClientData, ClientProvider, PartitionConfig, SynthClientProvider,
    SynthVision,
};
use subfed_metrics::comm::pack_mask;
use subfed_metrics::flops;
use subfed_metrics::trace::{self, Sink, TraceEvent, VecSink};
use subfed_nn::loss::softmax_cross_entropy;
use subfed_nn::models::ModelSpec;
use subfed_nn::optim::Sgd;
use subfed_nn::{is_kept, Mode, ModelMask, ParamKind, Sequential};
use subfed_pruning::{bridge, GateReason, HybridController};
use subfed_tensor::init::SeededRng;
use subfed_tensor::workspace::Workspace;

use crate::spec::{FLOP_LAYERS, MODEL_LAYERS};
use crate::stats::{mean, median};
use crate::workload::{
    classic_clients, federation_seed, hy_controller, provider_config, run_episode, setup,
    un_controller, Before, Driver, Episode, Workload, WORKERS,
};
use crate::Outcome;

/// Clients of the replayed round whose training is split per layer.
const SPLIT_CLIENTS: usize = 32;
/// Decoded uploads re-folded through the two-worker turnstile.
const FOLD_SAMPLE: usize = 128;
/// Split-training passes over the replayed clients, at the least.
const MIN_PASSES: usize = 3;

/// A decoded `(params, mask)` upload.
type Upload = (Vec<f32>, Vec<f32>);

/// State captured ahead of the replayed round.
enum Captured {
    Registry { global: Vec<f32>, registry: ClientRegistry },
    Un(Checkpoint),
}

/// One client of the replayed round, kept for the per-layer split.
struct SplitClient {
    data: Arc<ClientData>,
    init: Vec<f32>,
    mask: ModelMask,
    seed: u64,
    final_flat: Vec<f32>,
}

/// Timers of the replayed round, µs per call.
#[derive(Default)]
struct Replay {
    data_client: Vec<f64>,
    registry_read: Vec<f64>,
    registry_write: Vec<f64>,
    build: Vec<f64>,
    builds: usize,
    clients: usize,
    /// The workload's controller step (`un_step` or `hy_step`).
    prune_step: Vec<f64>,
    encode: Vec<f64>,
    decode: Vec<f64>,
    upload_bytes: Vec<f64>,
    fold: Vec<f64>,
    aggregate: Vec<f64>,
    split: Vec<SplitClient>,
    uploads: Vec<Upload>,
    /// `(client, flat mask after the round)` of each classic client.
    post_masks: Vec<(usize, Vec<f32>)>,
    /// Conv FLOP reduction of each client's channel mask (classic-hy).
    conv_flop_reduction: Vec<f64>,
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Times `f` in µs.
fn timed<T>(samples: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let v = f();
    samples.push(us_since(t));
    v
}

/// A [`ModelMask`] from its flat 0/1 form, laid out like `template`.
fn mask_from_flat(template: &Sequential, flat: &[f32]) -> ModelMask {
    let mut m = ModelMask::ones_for(template);
    let mut offset = 0;
    for t in m.tensors_mut() {
        let len = t.len();
        t.data_mut().copy_from_slice(&flat[offset..offset + len]);
        offset += len;
    }
    m
}

/// θ ⊙ m in place.
fn apply_mask(flat: &mut [f32], mask: &[f32]) {
    for (v, &m) in flat.iter_mut().zip(mask) {
        *v *= m;
    }
}

/// `build` + `load_flat`, timed and counted as one model build.
fn build_loaded(fed: &Federation, flat: &[f32], r: &mut Replay) -> Sequential {
    r.builds += 1;
    timed(&mut r.build, || {
        let mut m = fed.build_model();
        m.load_flat(flat);
        m
    })
}

/// Upload path shared by every driver: mask the trained weights, encode,
/// decode. Returns the decoded `(params, mask)` tuple.
fn upload(final_flat: &[f32], flat_mask: &[f32], r: &mut Replay) -> (Vec<f32>, Vec<f32>) {
    let mut params = final_flat.to_vec();
    apply_mask(&mut params, flat_mask);
    let buf = timed(&mut r.encode, || wire::encode_update(&params, flat_mask));
    r.upload_bytes.push(buf.len() as f64);
    timed(&mut r.decode, || wire::decode_update(&buf)).expect("self-encoded update decodes")
}

/// Replays round `round` of the registry workload from captured state,
/// mirroring `ScaledSubFedAvg::step_round` on one thread. Returns θ_g
/// after the round.
fn replay_registry(
    fed: &Federation,
    round: usize,
    global: &[f32],
    registry: &ClientRegistry,
    r: &mut Replay,
) -> Vec<f32> {
    let controller = un_controller(0.5);
    let ids = fed.survivors(round, &fed.sample_round(round));
    let mut reg = registry.clone();
    let mut acc = StreamingAccumulator::new(global.len());
    let mut ws = Workspace::new();
    let mut writes = Vec::new();
    for (slot, &i) in ids.iter().enumerate() {
        r.clients += 1;
        let data = timed(&mut r.data_client, || fed.client_data(i));
        let flat_before = timed(&mut r.registry_read, || reg.mask_flat(i));
        r.builds += 1;
        let template = timed(&mut r.build, || fed.build_model());
        let mask = mask_from_flat(&template, &flat_before);
        // `train_client_ws` builds the model once more.
        r.builds += 1;
        let seed = fed.client_seed(round, i);
        let out = train_client_ws(
            fed.spec(),
            global,
            &data,
            fed.config(),
            Some(&mask),
            None,
            seed,
            &mut ws,
        );
        let fe = build_loaded(fed, &out.first_epoch_flat, r);
        let le = build_loaded(fed, &out.final_flat, r);
        let (new_mask, _) =
            timed(&mut r.prune_step, || controller.step_explained(&fe, &le, &mask, out.val_acc));
        let changed = new_mask.is_some();
        let mask_after = new_mask.unwrap_or_else(|| mask.clone());
        let flat_mask = flatten_mask(&mask_after);
        let (p, m) = upload(&out.final_flat, &flat_mask, r);
        timed(&mut r.fold, || acc.fold(&p, &m)).expect("replayed upload fits the model");
        if slot < FOLD_SAMPLE {
            r.uploads.push((p, m));
        }
        if slot < SPLIT_CLIENTS {
            r.split.push(SplitClient {
                data,
                init: global.to_vec(),
                mask,
                seed,
                final_flat: out.final_flat,
            });
        }
        let kept = flat_mask.iter().filter(|&&b| is_kept(b)).count();
        writes.push((i, changed.then(|| (pack_mask(&flat_mask), kept))));
    }
    // Serial write-back in survivor order, as the driver does it.
    for (i, write) in writes {
        reg.note_participation(i);
        if let Some((packed, kept)) = write {
            timed(&mut r.registry_write, || reg.set_mask_packed(i, &packed, kept));
        }
    }
    timed(&mut r.aggregate, || acc.finish(global))
}

/// Replays round `round` of classic-un from the checkpoint taken after
/// round `round − 1`, mirroring `SubFedAvgUn::step_round`.
fn replay_un(fed: &Federation, round: usize, ckpt: &Checkpoint, r: &mut Replay) -> Vec<f32> {
    let controller = un_controller(0.7);
    let template = fed.build_model();
    let ids = fed.survivors(round, &fed.sample_round(round));
    let mut ws = Workspace::new();
    let mut updates = Vec::new();
    for &i in &ids {
        r.clients += 1;
        let data = timed(&mut r.data_client, || fed.client_data(i));
        let mask = mask_from_flat(&template, &ckpt.client_masks[i]);
        r.builds += 1;
        let seed = fed.client_seed(round, i);
        let out = train_client_ws(
            fed.spec(),
            &ckpt.global,
            &data,
            fed.config(),
            Some(&mask),
            None,
            seed,
            &mut ws,
        );
        let fe = build_loaded(fed, &out.first_epoch_flat, r);
        let le = build_loaded(fed, &out.final_flat, r);
        let (new_mask, _) =
            timed(&mut r.prune_step, || controller.step_explained(&fe, &le, &mask, out.val_acc));
        let flat_mask = flatten_mask(new_mask.as_ref().unwrap_or(&mask));
        let update = upload(&out.final_flat, &flat_mask, r);
        r.uploads.push(update.clone());
        r.post_masks.push((i, flat_mask));
        updates.push(update);
        r.split.push(SplitClient {
            data,
            init: ckpt.global.clone(),
            mask,
            seed,
            final_flat: out.final_flat,
        });
    }
    timed(&mut r.aggregate, || subfedavg_aggregate(&ckpt.global, &updates))
}

/// Classic-hy exposes no per-round state, so the run mirrors
/// `SubFedAvgHy::run` from round 1 with the public pruning API and
/// checks every round's hash against the driver's; round `round` is
/// timed. Returns the mirror's hash stream.
fn mirror_hy(fed: &Federation, round: usize, r: &mut Replay) -> Vec<u64> {
    let controller = hy_controller();
    let template = fed.build_model();
    let ones = ModelMask::ones_for(&template);
    let n = fed.num_clients();
    let mut channels = vec![HybridController::initial_channels(&template); n];
    let mut unstructured = vec![ones.clone(); n];
    let mut masks = vec![ones; n];
    let mut global = fed.init_global();
    let mut ws = Workspace::new();
    let mut hashes = Vec::new();
    for rd in 1..=round {
        let timed_round = rd == round;
        let mut scratch = Replay::default();
        let rr = if timed_round { &mut *r } else { &mut scratch };
        let ids = fed.survivors(rd, &fed.sample_round(rd));
        let mut updates = Vec::new();
        for &i in &ids {
            rr.clients += 1;
            let data = timed(&mut rr.data_client, || fed.client_data(i));
            rr.builds += 1;
            let seed = fed.client_seed(rd, i);
            let out = train_client_ws(
                fed.spec(),
                &global,
                &data,
                fed.config(),
                Some(&masks[i]),
                None,
                seed,
                &mut ws,
            );
            let fe = build_loaded(fed, &out.first_epoch_flat, rr);
            let le = build_loaded(fed, &out.final_flat, rr);
            let (step, _) = timed(&mut rr.prune_step, || {
                controller.step_explained(&fe, &le, &channels[i], &unstructured[i], out.val_acc)
            });
            let trained_mask = std::mem::replace(&mut masks[i], step.mask);
            channels[i] = step.channels;
            unstructured[i] = step.unstructured;
            let flat_mask = flatten_mask(&masks[i]);
            let update = upload(&out.final_flat, &flat_mask, rr);
            if timed_round {
                rr.uploads.push(update.clone());
                rr.post_masks.push((i, flat_mask));
                rr.conv_flop_reduction.push(flops::conv_flop_reduction(fed.spec(), &channels[i]));
                rr.split.push(SplitClient {
                    data,
                    init: global.clone(),
                    mask: trained_mask,
                    seed,
                    final_flat: out.final_flat,
                });
            }
            updates.push(update);
        }
        global = timed(&mut rr.aggregate, || subfedavg_aggregate(&global, &updates));
        hashes.push(trace::model_hash(&global));
    }
    hashes
}

/// Per-layer accumulation of split training, µs summed over batches.
struct Profile {
    names: Vec<String>,
    fwd: Vec<f64>,
    bwd: Vec<f64>,
    loss: f64,
    opt: f64,
    batches: usize,
    /// Σ over clients of (samples forwarded × effective FLOPs per sample)
    /// per model layer.
    flops: Vec<f64>,
}

impl Profile {
    fn new(model: &Sequential) -> Self {
        let names = layer_names(model);
        let n = names.len();
        Self {
            names,
            fwd: vec![0.0; n],
            bwd: vec![0.0; n],
            loss: 0.0,
            opt: 0.0,
            batches: 0,
            flops: vec![0.0; n],
        }
    }

    fn step_us(&self) -> f64 {
        (self.fwd.iter().sum::<f64>() + self.loss + self.bwd.iter().sum::<f64>() + self.opt)
            / self.batches.max(1) as f64
    }
}

/// Layer names as the per-layer metrics use them: each kind numbered in
/// model order (`conv1`, `bn1`, …, `fc3`).
fn layer_names(model: &Sequential) -> Vec<String> {
    let mut counts: Vec<(&str, usize)> = Vec::new();
    model
        .layers()
        .iter()
        .map(|l| {
            let kind = match l.name() {
                "conv2d" => "conv",
                "batchnorm2d" => "bn",
                "maxpool2d" => "pool",
                "linear" => "fc",
                other => other,
            };
            let n = match counts.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, c)) => {
                    *c += 1;
                    *c
                }
                None => {
                    counts.push((kind, 1));
                    1
                }
            };
            format!("{kind}{n}")
        })
        .collect()
}

/// Effective FLOPs per sample of each model layer under `mask` (zero for
/// layers without weights), from the same compressed-row patterns
/// `subfed_metrics::flops::effective_flops` counts.
fn layer_flops(spec: &ModelSpec, model: &Sequential, mask: &ModelMask) -> Vec<f64> {
    let convs = spec.conv_shapes();
    let mut conv_flops = Vec::new();
    let mut fc_flops = Vec::new();
    for (&kind, bits) in mask.kinds().iter().zip(mask.tensors()) {
        let Some(pat) = bridge::weight_pattern(kind, bits) else { continue };
        match kind {
            ParamKind::ConvWeight => {
                let s = &convs[conv_flops.len()];
                conv_flops.push(2.0 * pat.nnz() as f64 * (s.out_h * s.out_w) as f64);
            }
            ParamKind::FcWeight => fc_flops.push(2.0 * pat.nnz() as f64),
            _ => {}
        }
    }
    let (mut convs, mut fcs) = (conv_flops.into_iter(), fc_flops.into_iter());
    model
        .layers()
        .iter()
        .map(|l| match l.name() {
            "conv2d" => convs.next().expect("one conv weight mask per conv layer"),
            "linear" => fcs.next().expect("one fc weight mask per linear layer"),
            _ => 0.0,
        })
        .collect()
}

/// `train_client_ws` split per batch and per layer: the same build,
/// mask install, shuffles and steps, with a timer around every
/// `Layer::forward_ws`/`backward_ws`, the loss and `Sgd::step`. Returns
/// `final_flat`.
fn split_train(
    fed: &Federation,
    c: &SplitClient,
    mask: Option<&ModelMask>,
    ws: &mut Workspace,
    prof: &mut Profile,
) -> Vec<f32> {
    let cfg = fed.config();
    let mut rng = SeededRng::new(c.seed);
    let mut model = fed.spec().build(&mut rng);
    model.load_flat(&c.init);
    if let Some(m) = mask {
        m.apply(&mut model);
        model.install_sparsity(m);
    }
    let per_sample = layer_flops(fed.spec(), &model, mask.unwrap_or(&ModelMask::ones_for(&model)));
    let mut opt = Sgd::new(cfg.lr, cfg.momentum);
    for _ in 0..cfg.local_epochs {
        for batch in c.data.train.shuffled_batches(cfg.batch_size, &mut rng) {
            let mut x = batch.images.clone();
            for (li, layer) in model.layers_mut().iter_mut().enumerate() {
                let t = Instant::now();
                x = layer.forward_ws(&x, Mode::Train, ws);
                prof.fwd[li] += us_since(t);
                prof.flops[li] += per_sample[li] * batch.labels.len() as f64;
            }
            let t = Instant::now();
            let (_, mut g) = softmax_cross_entropy(&x, &batch.labels);
            prof.loss += us_since(t);
            for (li, layer) in model.layers_mut().iter_mut().enumerate().rev() {
                let t = Instant::now();
                g = layer.backward_ws(&g, ws);
                prof.bwd[li] += us_since(t);
            }
            let t = Instant::now();
            opt.step(&mut model, mask, None);
            prof.opt += us_since(t);
            prof.batches += 1;
        }
    }
    model.flatten()
}

/// Phase totals of the traced episode, from the program's own events.
#[derive(Default)]
struct EventStats {
    round_end: Vec<(usize, u64, u64)>,
    phase_us: f64,
    gates: usize,
    fired: usize,
    held_acc: usize,
    held_target: usize,
    held_stable: usize,
    updates: usize,
}

fn event_stats(events: &[TraceEvent]) -> EventStats {
    let mut s = EventStats::default();
    for e in events {
        match e {
            TraceEvent::RoundEnd { round, us, model_hash, .. } => {
                s.round_end.push((*round, *us, *model_hash))
            }
            TraceEvent::ClientTrain { us, .. }
            | TraceEvent::ClientPrune { us, .. }
            | TraceEvent::Encode { us, .. }
            | TraceEvent::Decode { us, .. }
            | TraceEvent::Eval { us, .. } => s.phase_us += *us as f64,
            TraceEvent::Aggregate { us, updates, .. } => {
                s.phase_us += *us as f64;
                s.updates += updates;
            }
            TraceEvent::PruneGate { fired, reason, .. } => {
                s.gates += 1;
                s.fired += usize::from(*fired);
                let held = |r: GateReason| usize::from(reason == r.as_str());
                s.held_acc += held(GateReason::AccuracyBelowThreshold);
                s.held_target += held(GateReason::TargetReached);
                s.held_stable += held(GateReason::MaskStable);
            }
            _ => {}
        }
    }
    s.round_end.sort_unstable();
    s
}

/// Passes of the classic workloads' registry and streaming-fold probe.
const PROBE_PASSES: usize = 20;

/// The classic drivers keep materialized per-client masks and aggregate
/// in batch, so neither the client registry nor the streaming fold runs
/// in their rounds. This times both on the replayed round's own
/// post-round masks and decoded uploads, so the `core.registry` and
/// `core.stream_agg` metrics read at the workload's model size: each
/// pass writes every mask into a fresh registry sized to the federation,
/// reads each back, and folds every upload into a fresh accumulator.
/// Returns the registry's resident MB and whether every read returned
/// the mask written.
fn probe_classic_core(num_clients: usize, r: &mut Replay) -> (Option<f64>, bool) {
    let Some(len) = r.post_masks.first().map(|(_, m)| m.len()) else { return (None, false) };
    let mut resident = None;
    let mut same = true;
    for _ in 0..PROBE_PASSES {
        let mut reg = ClientRegistry::new(num_clients, len);
        for (i, flat) in &r.post_masks {
            let kept = flat.iter().filter(|&&b| is_kept(b)).count();
            let packed = pack_mask(flat);
            timed(&mut r.registry_write, || reg.set_mask_packed(*i, &packed, kept));
        }
        for (i, flat) in &r.post_masks {
            same &= timed(&mut r.registry_read, || reg.mask_flat(*i)) == *flat;
        }
        resident = Some(reg.memory_bytes() as f64 / (1024.0 * 1024.0));
        let mut acc = StreamingAccumulator::new(len);
        for (p, m) in &r.uploads {
            timed(&mut r.fold, || acc.fold(p, m)).expect("replayed upload fits the model");
        }
    }
    (resident, same)
}

/// Re-folds `uploads` through an `OrderedAccumulator` from two workers
/// with the driver's strided slot schedule, back to back, and returns
/// each fold's µs: the turnstile's cost including its waits.
fn ordered_fold_us(uploads: Vec<Upload>) -> Vec<f64> {
    let Some(len) = uploads.first().map(|u| u.0.len()) else { return Vec::new() };
    let acc = OrderedAccumulator::new(len, WORKERS);
    let mut lanes: Vec<Vec<(usize, Upload)>> = (0..WORKERS).map(|_| Vec::new()).collect();
    for (slot, u) in uploads.into_iter().enumerate() {
        lanes[slot % WORKERS].push((slot, u));
    }
    let acc = &acc;
    std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .into_iter()
            .map(|lane| {
                s.spawn(move || {
                    lane.into_iter()
                        .map(|(slot, (p, m))| {
                            let t = Instant::now();
                            acc.fold(slot, p, m).expect("each slot folds once");
                            us_since(t)
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("fold worker")).collect()
    })
}

fn clients_per_s(ep: &Episode, rounds: usize) -> f64 {
    let n = rounds.min(ep.round_ms.len());
    ep.completed[..n].iter().sum::<usize>() as f64 / (ep.round_ms[..n].iter().sum::<f64>() / 1e3)
}

pub fn run(w: Workload, seed: u64, seconds: u64) -> Outcome {
    let start = Instant::now();
    let plan = w.plan();
    let fseed = federation_seed(seed, 0);
    let mut out = Outcome::default();

    // The one-worker rounds come first and double as the warm-up; then
    // the untraced reference, then the same federation traced, with the
    // replayed round's state captured on the way.
    let one = run_episode(&mut setup(w, fseed, 1, None), plan.w1_rounds, |_, _| {});
    let base = run_episode(&mut setup(w, fseed, WORKERS, None), plan.horizon, |_, _| {});
    let n = one.hashes.len().min(base.hashes.len());
    out.check(
        &format!("model_hash stream of rounds 1..={n} equal at 1 and {WORKERS} workers"),
        n > 0 && one.hashes[..n] == base.hashes[..n],
    );
    let sink = Arc::new(VecSink::new());
    let mut traced = setup(w, fseed, WORKERS, Some(sink.clone() as Arc<dyn Sink>));
    let mut captured = None;
    let traced_ep = run_episode(&mut traced, plan.horizon, |r, state| {
        if r == plan.replay_round {
            captured = Some(match state {
                Before::Scaled(d) => Captured::Registry {
                    global: d.global().to_vec(),
                    registry: d.registry().clone(),
                },
                Before::Un(a) => Captured::Un(a.checkpoint()),
            });
        }
    });
    let events = sink.snapshot();
    let ev = event_stats(&events);
    let traced_hashes: Vec<u64> = ev.round_end.iter().map(|e| e.2).collect();
    out.attempted += traced_ep.sampled.iter().sum::<usize>() as u64;
    out.failed += traced_ep.sampled.iter().sum::<usize>().saturating_sub(ev.updates) as u64;
    out.check(
        "traced and untraced runs give the same model_hash stream",
        traced_hashes == base.hashes,
    );
    out.check(
        "traced and untraced runs reach the same final_acc",
        traced_ep.final_acc.is_some() && traced_ep.final_acc == base.final_acc,
    );
    let registry_mb = match &traced {
        Driver::Scaled(d) => Some(d.registry().memory_bytes() as f64 / (1024.0 * 1024.0)),
        _ => None,
    };
    drop(traced);

    let speedup = clients_per_s(&base, n) / clients_per_s(&one, n);
    let overhead = clients_per_s(&base, base.round_ms.len())
        / clients_per_s(&traced_ep, traced_ep.round_ms.len());
    let traced_wall_ms: f64 = ev.round_end.iter().map(|e| e.1 as f64 / 1e3).sum();
    let unattributed = 1.0 - ev.phase_us / (WORKERS as f64 * traced_wall_ms * 1e3);

    // Replay the captured round from outside.
    let fed = match setup(w, fseed, 1, None) {
        Driver::Scaled(d) => d.federation().clone(),
        Driver::Un(_, fed) | Driver::Hy(_, fed, _) => fed,
    };
    let round = plan.replay_round;
    let driver_hash = ev.round_end.iter().find(|e| e.0 == round).map(|e| e.2);
    let mut rp = Replay::default();
    match captured {
        Some(state) => {
            let g = match state {
                Captured::Registry { global, registry } => {
                    replay_registry(&fed, round, &global, &registry, &mut rp)
                }
                Captured::Un(ckpt) => replay_un(&fed, round, &ckpt, &mut rp),
            };
            out.check(
                &format!(
                    "replayed round {round} aggregate hashes to the driver's RoundEnd.model_hash"
                ),
                Some(trace::model_hash(&g)) == driver_hash,
            );
        }
        // Classic-hy's driver only runs whole horizons, so nothing was
        // captured: mirror it instead.
        None => {
            let mirror = mirror_hy(&fed, round, &mut rp);
            out.check(
                &format!(
                    "mirrored rounds 1..={round} hash to the driver's RoundEnd.model_hash stream"
                ),
                mirror[..] == traced_hashes[..round.min(traced_hashes.len())],
            );
        }
    }

    // Per-layer split of local training at the replayed round's masks,
    // beside the same clients trained dense, repeated until the run's
    // time is used.
    let template = fed.build_model();
    let mut masked = Profile::new(&template);
    let mut dense = Profile::new(&template);
    let mut ws = Workspace::new();
    let mut identical = true;
    let mut flop_sum_ok = true;
    let mut eval_ms = Vec::new();
    for c in &rp.split {
        let per_layer: f64 = layer_flops(fed.spec(), &template, &c.mask).iter().sum();
        flop_sum_ok &= per_layer as u64 == flops::effective_flops(fed.spec(), &c.mask);
    }
    // Pass 0 checks and warms up; the profile keeps passes 1 and later.
    let mut pass = 0;
    while pass < MIN_PASSES || start.elapsed().as_secs() < seconds {
        if pass == 1 {
            masked = Profile::new(&template);
            dense = Profile::new(&template);
        }
        for c in &rp.split {
            let flat = split_train(&fed, c, Some(&c.mask), &mut ws, &mut masked);
            if pass == 0 {
                identical &=
                    flat.iter().map(|x| x.to_bits()).eq(c.final_flat.iter().map(|x| x.to_bits()));
                let mut model = fed.build_model();
                let mut local = c.final_flat.clone();
                apply_mask(&mut local, &flatten_mask(&c.mask));
                model.load_flat(&local);
                let t = Instant::now();
                evaluate_accuracy(&mut model, &c.data.test, 64);
                eval_ms.push(us_since(t) / 1e3);
            }
            split_train(&fed, c, None, &mut ws, &mut dense);
        }
        pass += 1;
    }
    out.check(
        "split per-layer training reproduces train_client_ws's final_flat bit for bit",
        identical && !rp.split.is_empty(),
    );
    out.check("per-layer effective FLOPs sum to metrics::flops::effective_flops", flop_sum_ok);

    let is_registry = w == Workload::Registry100k;
    let registry_mb = if is_registry {
        registry_mb
    } else {
        let (resident, same) = probe_classic_core(fed.num_clients(), &mut rp);
        out.check("registry probe reads back every mask it wrote", same);
        resident
    };
    let ordered_us = ordered_fold_us(std::mem::take(&mut rp.uploads));

    let ms = |v: &[f64]| mean(v).map(|x| x / 1e3);
    out.metric("data.client_ms", ms(&rp.data_client));
    let mut setup_times = Vec::new();
    if is_registry {
        let mut provider = None;
        for _ in 0..5 {
            provider = Some(timed(&mut setup_times, || {
                SynthClientProvider::new(SynthVision::mnist_like(fseed, 1), provider_config(fseed))
            }));
        }
        let ids = fed.sample_round(round);
        let same = provider.is_some_and(|p| {
            ids.iter().take(8).all(|&i| {
                let (a, b) = (p.client(i), fed.client_data(i));
                a.train.labels() == b.train.labels() && a.labels == b.labels
            })
        });
        out.check("timed data set-up reproduces the workload's client shards", same);
    } else {
        let cfg = PartitionConfig {
            num_clients: 20,
            shard_size: 15,
            shards_per_client: 2,
            val_fraction: 0.15,
            seed: fseed,
        };
        let mut parts = Vec::new();
        for _ in 0..5 {
            parts = timed(&mut setup_times, || {
                let synth = SynthVision::cifar10_like(fseed, 1);
                partition_pathological(synth.train(), synth.test(), &cfg)
            });
        }
        let same = parts.iter().zip(classic_clients(fseed)).all(|(a, b)| {
            a.train.labels() == b.train.labels()
                && a.test.len() == b.test.len()
                && a.labels == b.labels
        });
        out.check(
            "timed data set-up reproduces the workload's client split",
            same && parts.len() == 20,
        );
    }
    out.metric("data.setup_ms", median(&setup_times).map(|x| x / 1e3));
    out.metric("nn.build_ms", ms(&rp.build));
    out.metric("nn.builds_per_client", Some(rp.builds as f64 / rp.clients.max(1) as f64));
    let per_batch = |p: &Profile, v: f64| Some(v / p.batches.max(1) as f64 / 1e3);
    out.metric(
        "nn.fwd_ms_per_batch",
        per_batch(&masked, masked.fwd.iter().sum::<f64>() + masked.loss),
    );
    out.metric("nn.bwd_ms_per_batch", per_batch(&masked, masked.bwd.iter().sum()));
    out.metric("nn.opt_ms_per_batch", per_batch(&masked, masked.opt));
    out.metric("nn.eval_ms_per_client", mean(&eval_ms));
    let sparse_speedup = dense.step_us() / masked.step_us();
    out.metric("tensor.sparse_speedup", Some(sparse_speedup));
    let dense_flops = flops::dense_flops(fed.spec()) as f64;
    let eff: Vec<f64> =
        rp.split.iter().map(|c| flops::effective_flops(fed.spec(), &c.mask) as f64).collect();
    let flop_ratio = mean(&eff).map(|e| dense_flops / e);
    out.metric("tensor.flop_ratio", flop_ratio);
    out.metric("pruning.step_ms", ms(&rp.prune_step));
    out.metric("pruning.gate_fire_ratio", Some(ev.fired as f64 / ev.gates.max(1) as f64));
    out.metric("pruning.held_acc", Some(ev.held_acc as f64));
    out.metric("pruning.held_target", Some(ev.held_target as f64));
    out.metric("pruning.held_stable", Some(ev.held_stable as f64));
    out.metric("core.wire.encode_us", mean(&rp.encode));
    out.metric("core.wire.decode_us", mean(&rp.decode));
    out.metric("core.wire.upload_kb", mean(&rp.upload_bytes).map(|b| b / 1024.0));
    let fold = mean(&rp.fold);
    out.metric("core.stream_agg.fold_us", fold);
    out.metric("core.stream_agg.wait_us", mean(&ordered_us).zip(fold).map(|(o, f)| o - f));
    out.metric("core.aggregate_ms", ms(&rp.aggregate));
    out.metric("core.registry.read_us", mean(&rp.registry_read));
    out.metric("core.registry.write_us", mean(&rp.registry_write));
    out.metric("core.registry.resident_mb", registry_mb);
    let mut sample_us = Vec::new();
    for _ in 0..20 {
        timed(&mut sample_us, || fed.sample_round(round));
    }
    out.metric("core.sampler.sample_ms", median(&sample_us).map(|x| x / 1e3));
    out.metric("core.engine.unattributed_share", Some(unattributed));
    out.metric("core.engine.speedup_w2", Some(speedup));
    out.metric("metrics.trace_overhead", Some(overhead));

    // Both models have every layer named in `MODEL_LAYERS`.
    let layer = |l: &str| masked.names.iter().position(|n| n == l);
    let batches = masked.batches.max(1) as f64;
    for l in MODEL_LAYERS {
        out.metric(&format!("nn.{l}.fwd_us"), layer(l).map(|i| masked.fwd[i] / batches));
        out.metric(&format!("nn.{l}.bwd_us"), layer(l).map(|i| masked.bwd[i] / batches));
    }
    for l in FLOP_LAYERS {
        let gflops = layer(l).map(|i| masked.flops[i] / (masked.fwd[i] * 1e3));
        out.metric(&format!("tensor.{l}.gflops"), gflops);
    }

    table2_report(&mut out, w, &masked, &dense, dense_flops, flop_ratio, sparse_speedup, &rp);
    out.note(format!(
        "traced episode: {} gates, {} fired; unattributed share {:.3}; replayed round {round}: {} clients, {} split into layers over {} timed passes",
        ev.gates, ev.fired, unattributed, rp.clients, rp.split.len(), pass - 1
    ));
    out
}

fn model_label(w: Workload) -> &'static str {
    match w {
        Workload::Registry100k => "CNN-5",
        Workload::ClassicUn | Workload::ClassicHy => "LeNet-5",
    }
}

/// The Table 2 reconciliation: per conv/FC layer, analytic effective
/// FLOPs against measured forward/backward time, beside the dense
/// reference — does pruning buy training wall-clock on this host?
#[allow(clippy::too_many_arguments)]
fn table2_report(
    out: &mut Outcome,
    w: Workload,
    masked: &Profile,
    dense: &Profile,
    dense_flops: f64,
    flop_ratio: Option<f64>,
    sparse_speedup: f64,
    rp: &Replay,
) {
    out.note(format!(
        "table2 {} ({}), replayed-round masks vs dense, per batch:",
        w.name(),
        model_label(w)
    ));
    out.note(format!(
        "table2 {:<6} {:>12} {:>12} {:>8} {:>10} {:>10} {:>8} {:>10} {:>10} {:>8}",
        "layer",
        "dense_flop",
        "eff_flop",
        "flop_x",
        "fwd_d_us",
        "fwd_m_us",
        "fwd_x",
        "bwd_d_us",
        "bwd_m_us",
        "bwd_x"
    ));
    let (bd, bm) = (dense.batches.max(1) as f64, masked.batches.max(1) as f64);
    for (i, name) in masked.names.iter().enumerate() {
        if !(name.starts_with("conv") || name.starts_with("fc")) {
            continue;
        }
        let (fd, fm) = (dense.flops[i] / bd, masked.flops[i] / bm);
        let (wd, wm) = (dense.fwd[i] / bd, masked.fwd[i] / bm);
        let (gd, gm) = (dense.bwd[i] / bd, masked.bwd[i] / bm);
        out.note(format!(
            "table2 {name:<6} {fd:>12.0} {fm:>12.0} {:>8.2} {wd:>10.2} {wm:>10.2} {:>8.2} {gd:>10.2} {gm:>10.2} {:>8.2}",
            fd / fm,
            wd / wm,
            gd / gm
        ));
    }
    out.note(format!(
        "table2 total: analytic FLOP reduction {:.2}x (dense {:.0} FLOP/sample), training step speedup {:.2}x (dense {:.1} us, masked {:.1} us per batch)",
        flop_ratio.unwrap_or(f64::NAN),
        dense_flops,
        sparse_speedup,
        dense.step_us(),
        masked.step_us()
    ));
    if let Some(red) = mean(&rp.conv_flop_reduction) {
        out.note(format!(
            "table2 conv-channel FLOP reduction (paper's Table 2 measure): {red:.2}x"
        ));
    }
}
