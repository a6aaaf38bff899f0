//! Host fingerprint stamped on every result, and the comparison that
//! refuses to compare results from different hosts or builds.

use crate::json::Json;

/// ISA extensions that change which kernels the tensor crate can use.
const ISA: &[&str] =
    &["sse4_2", "avx", "avx2", "fma", "avx512f", "avx512bw", "avx512vl", "neon", "sve"];

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name") || l.starts_with("Model"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// ISA features present on the CPU (runtime detection where the
/// architecture supports it) and those the build was compiled for.
fn isa_features() -> (Vec<&'static str>, Vec<&'static str>) {
    let flags = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_flags: Vec<&str> = flags
        .lines()
        .find(|l| l.starts_with("flags") || l.starts_with("Features"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.split_whitespace().collect())
        .unwrap_or_default();
    let runtime = ISA
        .iter()
        .copied()
        .filter(|f| cpu_flags.iter().any(|c| *c == *f || (*f == "sse4_2" && *c == "sse4_2")))
        .collect();
    let mut compiled = Vec::new();
    macro_rules! compiled {
        ($($f:literal),*) => { $( if cfg!(target_feature = $f) { compiled.push($f); } )* };
    }
    compiled!("sse4.2", "avx", "avx2", "fma", "avx512f", "avx512bw", "avx512vl", "neon", "sve");
    (runtime, compiled)
}

/// The fingerprint: CPU model, core count, ISA features, toolchain,
/// build profile and rustflags.
pub fn fingerprint() -> Json {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let (runtime, compiled) = isa_features();
    let s = |v: &str| Json::Str(v.to_string());
    Json::Obj(vec![
        ("cpu_model".into(), s(&cpu_model())),
        ("nproc".into(), Json::Num(nproc as f64)),
        ("isa_features".into(), s(&runtime.join(","))),
        ("isa_compiled".into(), s(&compiled.join(","))),
        ("arch".into(), s(std::env::consts::ARCH)),
        ("rustc".into(), s(env!("PERFBENCH_RUSTC"))),
        ("profile".into(), s(env!("PERFBENCH_PROFILE"))),
        ("opt_level".into(), s(env!("PERFBENCH_OPT_LEVEL"))),
        ("rustflags".into(), s(env!("PERFBENCH_RUSTFLAGS"))),
    ])
}

/// Keys whose values differ between two fingerprints (a key missing on
/// either side counts as differing).
pub fn fingerprint_diff(a: &Json, b: &Json) -> Vec<String> {
    let keys = |j: &Json| match j {
        Json::Obj(kv) => kv.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
        _ => Vec::new(),
    };
    let mut all = keys(a);
    for k in keys(b) {
        if !all.contains(&k) {
            all.push(k);
        }
    }
    if all.is_empty() {
        return vec!["<no fingerprint>".to_string()];
    }
    all.into_iter().filter(|k| a.get(k).is_none() || a.get(k) != b.get(k)).collect()
}

/// Compares two result files written with `--out`. Refuses (returns
/// `Err`) when the fingerprints or workloads differ; otherwise returns a
/// table of `b / a` ratios per metric.
pub fn compare(a: &Json, b: &Json) -> Result<String, String> {
    let (fa, fb) = (a.get("fingerprint"), b.get("fingerprint"));
    let (Some(fa), Some(fb)) = (fa, fb) else {
        return Err("a result file lacks its host fingerprint".to_string());
    };
    let diff = fingerprint_diff(fa, fb);
    if !diff.is_empty() {
        return Err(format!("fingerprints differ in {}: refusing to compare", diff.join(", ")));
    }
    for key in ["workload", "trace"] {
        if a.get(key) != b.get(key) {
            return Err(format!("results differ in {key}: refusing to compare"));
        }
    }
    let metrics = |j: &Json| match j.get("result").and_then(|r| r.get("metrics")) {
        Some(Json::Obj(kv)) => kv.clone(),
        _ => Vec::new(),
    };
    let (ma, mb) = (metrics(a), metrics(b));
    let mut out = format!("{:<36} {:>14} {:>14} {:>8}\n", "metric", "a", "b", "b/a");
    for (name, va) in &ma {
        let value = |v: &Json| v.get("value").and_then(Json::as_f64);
        let vb = mb.iter().find(|(n, _)| n == name).and_then(|(_, v)| value(v));
        let va = value(va);
        let cell = |x: Option<f64>| x.map_or("null".to_string(), |x| format!("{x:.6}"));
        let ratio = match (va, vb) {
            (Some(x), Some(y)) if x != 0.0 => format!("{:.3}", y / x),
            _ => "-".to_string(),
        };
        out.push_str(&format!("{name:<36} {:>14} {:>14} {ratio:>8}\n", cell(va), cell(vb)));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(cpu: &str, value: f64) -> Json {
        let mut fp = fingerprint();
        if let Json::Obj(kv) = &mut fp {
            kv[0].1 = Json::Str(cpu.to_string());
        }
        Json::parse(&format!(
            r#"{{"workload": "classic-un", "trace": 0, "fingerprint": {},
                "result": {{"metrics": {{"clients_per_s": {{"value": {value}, "unit": "1/s"}}}}}}}}"#,
            fp.render()
        ))
        .unwrap()
    }

    #[test]
    fn fingerprint_names_host_and_build() {
        let fp = fingerprint();
        for key in ["cpu_model", "nproc", "isa_features", "rustc", "profile", "rustflags"] {
            assert!(fp.get(key).is_some(), "fingerprint lacks {key}");
        }
        assert!(fingerprint_diff(&fp, &fp).is_empty());
    }

    #[test]
    fn compare_refuses_different_hosts() {
        let err = compare(&result("cpu A", 10.0), &result("cpu B", 11.0)).unwrap_err();
        assert!(err.contains("cpu_model"), "{err}");
        let table = compare(&result("cpu A", 10.0), &result("cpu A", 11.0)).unwrap();
        assert!(table.contains("1.100"), "{table}");
    }
}
