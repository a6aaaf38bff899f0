//! Trace conformance verifier: replays a JSONL trace (as written by
//! `--trace` / [`subfed_metrics::trace::JsonlSink`]) against the
//! executable protocol spec in [`crate::spec`].
//!
//! The verifier is streaming-friendly but *order-aware*: JSONL lines are
//! written in arrival order, which under worker threads is not emission
//! order. Every record carries a monotone `seq` stamped at emission, so
//! when all records have one the verifier re-sorts by `seq` (stable, so
//! legacy seq-less traces replay in file order) before replaying. It also
//! checks the `seq` stream itself: duplicates or holes mean the trace was
//! truncated or stitched together from different runs.
//!
//! Exit-code contract (see `subfed-lint conform`): 0 clean, 1 protocol
//! violations, 2 unreadable input.

use std::io::BufRead;
use subfed_metrics::trace::{TraceEvent, TraceReader};

use crate::spec::{ProtocolSpec, Violation};

/// Outcome of replaying one trace.
#[derive(Debug, Default)]
pub struct ConformReport {
    /// Protocol violations, in replay order.
    pub violations: Vec<Violation>,
    /// Lines that could not be parsed as trace records (`line N: why`).
    pub parse_errors: Vec<String>,
    /// Number of events replayed.
    pub events: usize,
    /// Number of rounds closed by a `round_end`.
    pub rounds: usize,
}

impl ConformReport {
    /// `true` when the trace parsed fully and satisfied every predicate.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.parse_errors.is_empty()
    }

    /// Process exit code for this report: parse errors dominate (the
    /// verdict on an unreadable trace is "unreadable", not "clean").
    pub fn exit_code(&self) -> u8 {
        if !self.parse_errors.is_empty() {
            2
        } else if !self.violations.is_empty() {
            1
        } else {
            0
        }
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "conform: {} events, {} rounds, {} violations, {} parse errors\n",
            self.events,
            self.rounds,
            self.violations.len(),
            self.parse_errors.len()
        )
    }
}

/// Parses a JSONL trace into emission-ordered `(line, event)` records.
/// Parse and ordering problems land in `report.parse_errors`, prefixed
/// with `label` (empty for single-trace replays).
fn ordered_records<R: BufRead>(
    reader: R,
    label: &str,
    report: &mut ConformReport,
) -> Vec<(usize, TraceEvent)> {
    let mut records: Vec<(usize, Option<u64>, TraceEvent)> = Vec::new();
    for item in TraceReader::new(reader) {
        match item {
            Ok((line, tl)) => records.push((line, tl.seq, tl.event)),
            Err(e) => report.parse_errors.push(format!("{label}{e}")),
        }
    }

    // Establish the replay order: emission (`seq`) order when the whole
    // trace is stamped, file order otherwise (a mixed trace is two runs
    // concatenated — flag it rather than guessing an interleaving).
    let stamped = records.iter().filter(|(_, seq, _)| seq.is_some()).count();
    if stamped == records.len() {
        records.sort_by_key(|(_, seq, _)| seq.unwrap_or(u64::MAX));
        // Resynchronise `want` after each gap so one missing record
        // reports once, not once per record that follows it.
        let mut want = 0u64;
        for (line, seq, _) in &records {
            match seq {
                Some(s) if *s == want => want += 1,
                Some(s) if *s < want => report.parse_errors.push(format!(
                    "{label}line {line}: duplicate seq {s} — trace mixes records from \
                     different runs"
                )),
                Some(s) => {
                    report.parse_errors.push(format!(
                        "{label}line {line}: seq jumps to {s} where {want} was expected — \
                         records are missing from the trace"
                    ));
                    want = s + 1;
                }
                None => unreachable!("all records stamped"),
            }
        }
    } else if stamped > 0 {
        report.parse_errors.push(format!(
            "{label}{stamped} of {} records carry a seq field — a partially stamped trace \
             cannot be ordered; was it concatenated from different runs?",
            records.len()
        ));
    }
    records.into_iter().map(|(line, _, event)| (line, event)).collect()
}

/// Replays a JSONL trace from `reader` against the protocol spec.
pub fn verify_reader<R: BufRead>(reader: R) -> ConformReport {
    let mut report = ConformReport::default();
    let records = ordered_records(reader, "", &mut report);
    let mut spec = ProtocolSpec::new();
    for (line, event) in &records {
        report.violations.extend(spec.observe(event, Some(*line)));
    }
    report.violations.extend(spec.finish());
    report.events = spec.events_seen;
    report.rounds = spec.rounds_seen;
    report
}

/// Replays two JSONL traces of the *same configuration* (same seed and
/// data, any `--workers` setting) and requires them to be
/// replay-identical: each must individually conform to the protocol
/// spec, and [`crate::spec::replay_identity`] must find their canonical
/// streams and per-round model hashes bit-for-bit equal.
///
/// This is the CI replay-identity gate: run the federation twice at
/// different worker counts, then
/// `subfed-lint conform run-a.jsonl run-b.jsonl` exits 0 only when the
/// two runs are the same run.
pub fn verify_replay_pair<R1: BufRead, R2: BufRead>(a: R1, b: R2) -> ConformReport {
    let mut report = ConformReport::default();
    let ra = ordered_records(a, "run A: ", &mut report);
    let rb = ordered_records(b, "run B: ", &mut report);
    let mut replay = |records: &[(usize, TraceEvent)]| {
        let mut spec = ProtocolSpec::new();
        for (line, event) in records {
            report.violations.extend(spec.observe(event, Some(*line)));
        }
        report.violations.extend(spec.finish());
        report.events += spec.events_seen;
        (spec.rounds_seen, records.iter().map(|(_, e)| e.clone()).collect::<Vec<_>>())
    };
    let (rounds_a, events_a) = replay(&ra);
    let (_, events_b) = replay(&rb);
    report.rounds = rounds_a;
    report.violations.extend(crate::spec::replay_identity(&events_a, &events_b));
    report
}

/// Replays in-memory events (already in emission order) — the test- and
/// library-facing entry point.
pub fn verify_events(events: &[TraceEvent]) -> ConformReport {
    let mut report = ConformReport::default();
    let mut spec = ProtocolSpec::new();
    for event in events {
        report.violations.extend(spec.observe(event, None));
    }
    report.violations.extend(spec.finish());
    report.events = spec.events_seen;
    report.rounds = spec.rounds_seen;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn replay(text: &str) -> ConformReport {
        verify_reader(Cursor::new(text.as_bytes()))
    }

    #[test]
    fn empty_input_is_clean() {
        let r = replay("");
        assert!(r.is_clean());
        assert_eq!(r.exit_code(), 0);
        assert_eq!(r.events, 0);
    }

    #[test]
    fn garbage_line_is_a_parse_error_with_line_number() {
        let r = replay("not json\n");
        assert_eq!(r.exit_code(), 2);
        assert!(r.parse_errors[0].starts_with("line 1:"), "{:?}", r.parse_errors);
    }

    #[test]
    fn out_of_file_order_records_are_replayed_in_seq_order() {
        // Upload written to the file before the decode it must follow —
        // exactly what a worker thread's buffering can do. seq restores
        // emission order, so this minimal fragment only trips the
        // truncated-trace check (no round_end), not phase-order.
        let trace = "\
{\"ev\":\"round_start\",\"seq\":0,\"round\":1,\"sampled\":[0],\"survivors\":[0]}
{\"ev\":\"train\",\"seq\":1,\"round\":1,\"client\":0,\"us\":5,\"val_acc\":0.5,\"train_loss\":1.0}
{\"ev\":\"download\",\"seq\":2,\"round\":1,\"client\":0,\"bytes\":400}
{\"ev\":\"prune\",\"seq\":3,\"round\":1,\"client\":0,\"us\":5}
{\"ev\":\"prune_gate\",\"seq\":4,\"round\":1,\"client\":0,\"track\":\"un\",\"fired\":false,\"reason\":\"target-reached\",\"val_acc\":0.5,\"mask_distance\":null,\"pruned_fraction\":0.0}
{\"ev\":\"upload\",\"seq\":7,\"round\":1,\"client\":0,\"bytes\":400}
{\"ev\":\"encode\",\"seq\":5,\"round\":1,\"client\":0,\"us\":5,\"bytes\":421,\"kept\":100}
{\"ev\":\"decode\",\"seq\":6,\"round\":1,\"client\":0,\"us\":5,\"bytes\":421}
";
        let r = replay(trace);
        assert!(
            !r.violations.iter().any(|v| v.rule == "phase-order"),
            "seq order was not honoured: {:?}",
            r.violations
        );
        assert!(r.violations.iter().any(|v| v.rule == "truncated-trace"));
    }

    #[test]
    fn duplicate_seq_is_a_parse_error() {
        let trace = "\
{\"ev\":\"round_start\",\"seq\":0,\"round\":1,\"sampled\":[],\"survivors\":[]}
{\"ev\":\"round_end\",\"seq\":0,\"round\":1,\"us\":5,\"cum_bytes\":0}
";
        let r = replay(trace);
        assert_eq!(r.exit_code(), 2);
        assert!(r.parse_errors.iter().any(|e| e.contains("duplicate seq")), "{:?}", r.parse_errors);
    }

    #[test]
    fn seq_hole_is_a_parse_error() {
        let trace = "\
{\"ev\":\"round_start\",\"seq\":0,\"round\":1,\"sampled\":[],\"survivors\":[]}
{\"ev\":\"round_end\",\"seq\":5,\"round\":1,\"us\":5,\"cum_bytes\":0}
";
        let r = replay(trace);
        assert_eq!(r.exit_code(), 2);
        assert!(r.parse_errors.iter().any(|e| e.contains("missing")), "{:?}", r.parse_errors);
    }

    #[test]
    fn partially_stamped_trace_is_a_parse_error() {
        let trace = "\
{\"ev\":\"round_start\",\"seq\":0,\"round\":1,\"sampled\":[],\"survivors\":[]}
{\"ev\":\"round_end\",\"round\":1,\"us\":5,\"cum_bytes\":0}
";
        let r = replay(trace);
        assert_eq!(r.exit_code(), 2);
        assert!(
            r.parse_errors.iter().any(|e| e.contains("partially stamped")),
            "{:?}",
            r.parse_errors
        );
    }

    #[test]
    fn seqless_trace_replays_in_file_order() {
        let trace = "\
{\"ev\":\"round_start\",\"round\":1,\"sampled\":[],\"survivors\":[]}
{\"ev\":\"round_end\",\"round\":1,\"us\":5,\"cum_bytes\":0}
";
        let r = replay(trace);
        assert!(r.is_clean(), "{:?}", (r.violations, r.parse_errors));
        assert_eq!(r.rounds, 1);
    }

    fn replay_pair(a: &str, b: &str) -> ConformReport {
        verify_replay_pair(Cursor::new(a.as_bytes()), Cursor::new(b.as_bytes()))
    }

    #[test]
    fn replay_pair_of_identical_runs_is_clean() {
        let run = "\
{\"ev\":\"round_start\",\"round\":1,\"sampled\":[],\"survivors\":[]}
{\"ev\":\"round_end\",\"round\":1,\"us\":5,\"cum_bytes\":0,\"model_hash\":\"00000000deadbeef\"}
";
        // Different wall-times are scheduling noise, not divergence.
        let other = run.replace("\"us\":5", "\"us\":99");
        let r = replay_pair(run, &other);
        assert!(r.is_clean(), "{:?}", (r.violations, r.parse_errors));
        assert_eq!(r.rounds, 1);
        assert_eq!(r.events, 4);
    }

    #[test]
    fn replay_pair_with_diverging_hashes_fails_the_gate() {
        let a = "\
{\"ev\":\"round_start\",\"round\":1,\"sampled\":[],\"survivors\":[]}
{\"ev\":\"round_end\",\"round\":1,\"us\":5,\"cum_bytes\":0,\"model_hash\":\"00000000deadbeef\"}
";
        let b = a.replace("deadbeef", "deadbee0");
        let r = replay_pair(a, &b);
        assert_eq!(r.exit_code(), 1);
        assert!(
            r.violations
                .iter()
                .any(|v| v.rule == "replay-identity" && v.message.contains("model_hash diverges")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn replay_pair_parse_errors_name_the_run() {
        let good = "{\"ev\":\"round_start\",\"round\":1,\"sampled\":[],\"survivors\":[]}\n\
                    {\"ev\":\"round_end\",\"round\":1,\"us\":5,\"cum_bytes\":0}\n";
        let r = replay_pair(good, "not json\n");
        assert_eq!(r.exit_code(), 2);
        assert!(
            r.parse_errors.iter().any(|e| e.starts_with("run B: line 1:")),
            "{:?}",
            r.parse_errors
        );
    }

    #[test]
    fn violations_carry_the_source_line() {
        let trace = "\
{\"ev\":\"round_start\",\"seq\":0,\"round\":1,\"sampled\":[],\"survivors\":[]}
{\"ev\":\"round_start\",\"seq\":1,\"round\":1,\"sampled\":[],\"survivors\":[]}
{\"ev\":\"round_end\",\"seq\":2,\"round\":1,\"us\":5,\"cum_bytes\":0}
";
        let r = replay(trace);
        let overlap =
            r.violations.iter().find(|v| v.rule == "round-overlap").expect("overlap violation");
        assert_eq!(overlap.line, Some(2));
        assert_eq!(r.exit_code(), 1);
    }
}
