//! The benchmark's declared metrics: names, units and directions, which
//! `BENCHMARK.json` at the repository root must list exactly.

/// A declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDecl {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDecl {
    MetricDecl { name, unit, better }
}

/// Metrics of untraced runs (`--trace 0`).
pub const END_TO_END: &[MetricDecl] = &[
    m("clients_per_s", "1/s", "higher"),
    m("round_ms.p50", "ms", "lower"),
    m("round_ms.tail", "ms", "lower"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
    m("final_acc", "ratio", "higher"),
    m("comm_mb_per_round", "MB", "lower"),
    m("ok_share", "ratio", "higher"),
];

/// Model layers under the names the per-layer metrics use: each kind
/// numbered in model order. These are the twelve layers CNN-5 and
/// LeNet-5 share, so every workload reports each of them; LeNet-5's
/// `relu4` and `fc3` appear in the Table 2 report and in the per-batch
/// totals only.
pub const MODEL_LAYERS: &[&str] = &[
    "conv1", "bn1", "relu1", "pool1", "conv2", "bn2", "relu2", "pool2", "flatten1", "fc1", "relu3",
    "fc2",
];

/// The shared layers with a FLOP count in `subfed_metrics::flops`.
pub const FLOP_LAYERS: &[&str] = &["conv1", "conv2", "fc1", "fc2"];

const PER_LAYER_FIXED: &[MetricDecl] = &[
    m("data.client_ms", "ms", "lower"),
    m("data.setup_ms", "ms", "lower"),
    m("nn.build_ms", "ms", "lower"),
    m("nn.builds_per_client", "count", "lower"),
    m("nn.fwd_ms_per_batch", "ms", "lower"),
    m("nn.bwd_ms_per_batch", "ms", "lower"),
    m("nn.opt_ms_per_batch", "ms", "lower"),
    m("nn.eval_ms_per_client", "ms", "lower"),
    m("tensor.sparse_speedup", "ratio", "higher"),
    m("tensor.flop_ratio", "ratio", "higher"),
    m("pruning.step_ms", "ms", "lower"),
    m("pruning.gate_fire_ratio", "ratio", "higher"),
    m("pruning.held_acc", "count", "lower"),
    m("pruning.held_target", "count", "lower"),
    m("pruning.held_stable", "count", "lower"),
    m("core.wire.encode_us", "us", "lower"),
    m("core.wire.decode_us", "us", "lower"),
    m("core.wire.upload_kb", "KB", "lower"),
    m("core.stream_agg.fold_us", "us", "lower"),
    m("core.stream_agg.wait_us", "us", "lower"),
    m("core.aggregate_ms", "ms", "lower"),
    m("core.registry.read_us", "us", "lower"),
    m("core.registry.write_us", "us", "lower"),
    m("core.registry.resident_mb", "MB", "lower"),
    m("core.sampler.sample_ms", "ms", "lower"),
    m("core.engine.unattributed_share", "ratio", "lower"),
    m("core.engine.speedup_w2", "ratio", "higher"),
    m("metrics.trace_overhead", "ratio", "lower"),
];

/// Per-model-layer and per-FLOP-layer metric names, in declaration order.
pub fn layer_metric_names() -> Vec<(String, &'static str, &'static str)> {
    let mut out = Vec::new();
    for l in MODEL_LAYERS {
        out.push((format!("nn.{l}.fwd_us"), "us", "lower"));
        out.push((format!("nn.{l}.bwd_us"), "us", "lower"));
    }
    for l in FLOP_LAYERS {
        out.push((format!("tensor.{l}.gflops"), "GFLOP/s", "higher"));
    }
    out
}

/// Every metric of traced runs (`--trace 1`): `(name, unit, better)`.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<_> =
        PER_LAYER_FIXED.iter().map(|d| (d.name.to_string(), d.unit, d.better)).collect();
    out.extend(layer_metric_names());
    out
}

/// A metric or workload name: 1–64 characters of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(s: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&s.len())
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars().all(ok_char)
}

/// A unit: 1–16 characters of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workload::Workload;
    use std::collections::HashSet;

    #[test]
    fn name_validation_follows_the_contract() {
        for good in ["clients_per_s", "round_ms.p50", "nn.conv1.fwd_us", "a", "9x", "x-y"] {
            assert!(valid_name(good), "{good:?} is valid");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "-x", "a b", "a/b", "µs", "a:b", long.as_str()] {
            assert!(!valid_name(bad), "{bad:?} is invalid");
        }
        assert!(valid_name(&"a".repeat(64)));
        for good in ["ms", "1/s", "%", "GFLOP/s", "count"] {
            assert!(valid_unit(good), "{good:?} is a valid unit");
        }
        for bad in ["", "m s", "µs", "abcdefghijklmnopq"] {
            assert!(!valid_unit(bad), "{bad:?} is an invalid unit");
        }
    }

    #[test]
    fn declared_metrics_are_valid_and_unique() {
        let mut seen = HashSet::new();
        let all =
            END_TO_END.iter().map(|d| (d.name.to_string(), d.unit, d.better)).chain(per_layer());
        for (name, unit, better) in all {
            assert!(valid_name(&name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert!(better == "higher" || better == "lower");
            assert!(seen.insert(name.clone()), "{name} declared twice");
        }
        assert!(per_layer().len() <= 128);
    }

    fn benchmark_json() -> (String, Json) {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        (text, json)
    }

    #[test]
    fn benchmark_json_round_trips() {
        let (_, json) = benchmark_json();
        let again = Json::parse(&json.render()).expect("rendered form parses");
        assert_eq!(again, json);
        assert_eq!(again.render(), json.render());
        let keys: Vec<&str> = match &json {
            Json::Obj(kv) => kv.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("BENCHMARK.json is an object"),
        };
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        );
    }

    #[test]
    fn benchmark_json_matches_the_declared_metrics() {
        let (text, json) = benchmark_json();
        assert!(text.len() <= 64 * 1024);
        let listed = |key: &str| -> Vec<(String, String, String)> {
            json.get(key)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("{key} is a list"))
                .iter()
                .map(|e| {
                    let s = |k: &str| e.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layer: Vec<_> =
            per_layer().into_iter().map(|(n, u, b)| (n, u.to_string(), b.to_string())).collect();
        assert_eq!(listed("per_layer"), layer);
        for e in json.get("end_to_end").and_then(Json::as_array).unwrap() {
            let bound = e.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound} out of range");
        }
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        let known: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, known);
        assert!(json
            .get("end_to_end")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .any(|e| { e.get("name").and_then(Json::as_str) == Some("setup_s") }));
    }
}
