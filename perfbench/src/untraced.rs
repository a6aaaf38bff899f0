//! The untraced run: the end-to-end metrics, measured with tracing off.
//!
//! A run drives whole *cycles* — one episode of each of the workload's
//! federations — until `--seconds` have passed and at least
//! [`MIN_ROUNDS`] rounds were timed. Every episode is set up afresh, and
//! each set-up is timed for `setup_s`.

use std::time::Instant;

use crate::stats;
use crate::workload::{federation_seed, run_episode, setup, Workload, MIN_ROUNDS, WORKERS};
use crate::Outcome;

/// Set-ups timed per run at the least; `setup_s` is their median.
const MIN_SETUPS: usize = 5;

/// Process high-water resident memory (`VmHWM`), MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn run(w: Workload, seed: u64, seconds: u64) -> Outcome {
    let plan = w.plan();
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut round_ms = Vec::new();
    let (mut clients, mut wall_ms) = (0usize, 0.0f64);
    // Per federation: (hash stream, final accuracy, bytes per round) of
    // its first episode, against which its repeats are checked.
    let mut reference: Vec<(Vec<u64>, Option<f64>, f64)> = Vec::new();
    let start = Instant::now();
    let mut cycle = 0;
    let mut peak = None;
    loop {
        for k in 0..plan.federations {
            let t = Instant::now();
            let mut driver = setup(w, federation_seed(seed, k), WORKERS, None);
            setups.push(t.elapsed().as_secs_f64());
            let ep = run_episode(&mut driver, plan.horizon, |_, _| {});
            drop(driver);
            // Later episodes inherit allocator arenas whose residency
            // depends on thread timing; the fresh process's first set-up
            // and episode give a repeatable high-water mark.
            if peak.is_none() {
                peak = peak_rss_mb();
            }
            out.attempted += ep.sampled.iter().sum::<usize>() as u64;
            out.failed += ep
                .sampled
                .iter()
                .zip(&ep.completed)
                .map(|(s, c)| s.saturating_sub(*c) as u64)
                .sum::<u64>();
            clients += ep.clients();
            wall_ms += ep.wall_ms();
            round_ms.extend_from_slice(&ep.round_ms);
            if cycle == 0 {
                let per_round = ep.cum_bytes as f64 / plan.horizon as f64 / 1e6;
                reference.push((ep.hashes, ep.final_acc, per_round));
            } else {
                out.check(
                    &format!(
                        "federation {k}: episode {cycle} repeats episode 0's model_hash stream"
                    ),
                    ep.hashes == reference[k].0,
                );
            }
        }
        cycle += 1;
        if start.elapsed().as_secs() >= seconds && round_ms.len() >= MIN_ROUNDS {
            break;
        }
    }
    while setups.len() < MIN_SETUPS {
        let t = Instant::now();
        let driver =
            setup(w, federation_seed(seed, setups.len() % plan.federations), WORKERS, None);
        setups.push(t.elapsed().as_secs_f64());
        drop(driver);
    }

    // Thread-count independence: the first federation's opening rounds
    // again at one worker.
    let mut one = setup(w, federation_seed(seed, 0), 1, None);
    let ep1 = run_episode(&mut one, plan.w1_rounds, |_, _| {});
    let n = ep1.hashes.len().min(reference[0].0.len());
    out.check(
        &format!("model_hash stream of rounds 1..={n} equal at 1 and {WORKERS} workers"),
        n > 0 && ep1.hashes[..n] == reference[0].0[..n],
    );

    let accs: Vec<f64> = reference.iter().filter_map(|r| r.1).collect();
    let final_acc = stats::mean(&accs).filter(|_| accs.len() == reference.len());
    out.check(
        &format!("final_acc at or above the recorded floor {}", plan.acc_floor),
        final_acc.is_some_and(|a| a >= plan.acc_floor),
    );
    let comm: Vec<f64> = reference.iter().map(|r| r.2).collect();
    let tail = stats::tail(&round_ms);
    if let Some(t) = tail {
        out.note(format!(
            "round_ms: {} rounds, p50 {:.3} ms, tail p{:.1} = {:.3} ms",
            t.samples,
            stats::median(&round_ms).unwrap_or(f64::NAN),
            t.percentile,
            t.value
        ));
    }
    let ok_share = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
    out.metric("clients_per_s", Some(clients as f64 / (wall_ms / 1e3)));
    out.metric("round_ms.p50", stats::median(&round_ms));
    out.metric("round_ms.tail", tail.map(|t| t.value));
    out.metric("setup_s", stats::median(&setups));
    out.metric("peak_rss_mb", peak);
    out.metric("final_acc", final_acc);
    out.metric("comm_mb_per_round", stats::mean(&comm));
    out.metric("ok_share", Some(ok_share));
    out
}
