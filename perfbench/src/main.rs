//! Round-level benchmark of the Sub-FedAvg federation.
//!
//! `perfbench --workload W --seed N --seconds S --trace 0|1` runs one
//! workload and prints, as its last line, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The lines
//! before it carry the host fingerprint, the correctness checks and, for
//! traced runs, the Table 2 reconciliation. `README.md` in this
//! directory documents the workloads and metrics.

mod args;
mod host;
mod json;
mod spec;
mod stats;
mod traced;
mod untraced;
mod workload;

use json::Json;

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// `(name, value)`; `None` when the run measured nothing for it.
    pub metrics: Vec<(String, Option<f64>)>,
    /// `(description, passed)`.
    pub checks: Vec<(String, bool)>,
    /// Client updates attempted plus checks made.
    pub attempted: u64,
    /// Client updates not completed plus checks failed.
    pub failed: u64,
    /// Free-form report lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: Option<f64>) {
        self.metrics.push((name.to_string(), value));
    }

    pub fn check(&mut self, what: &str, passed: bool) {
        self.checks.push((what.to_string(), passed));
        self.attempted += 1;
        self.failed += u64::from(!passed);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The result line. Each declared metric appears once, in declaration
    /// order, with its unit; one the run did not report, or reported
    /// without a finite value, is an error.
    fn result(&self, declared: &[(String, &'static str, &'static str)]) -> Result<Json, String> {
        let mut metrics = Vec::new();
        for (name, unit, _) in declared {
            if !spec::valid_name(name) || !spec::valid_unit(unit) {
                return Err(format!("metric {name} ({unit}) breaks the naming rules"));
            }
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .ok_or_else(|| format!("metric {name} was not reported"))?
                .1
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("metric {name} has no finite value"))?;
            metrics.push((
                name.clone(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::Str(unit.to_string())),
                ]),
            ));
        }
        Ok(Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted.max(1) as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ]))
    }
}

fn run(a: &args::RunArgs) -> Result<bool, String> {
    let fingerprint = host::fingerprint();
    println!("fingerprint {}", fingerprint.render());
    let (outcome, declared) = if a.trace {
        (traced::run(a.workload, a.seed, a.seconds), spec::per_layer())
    } else {
        let e2e = spec::END_TO_END.iter().map(|d| (d.name.to_string(), d.unit, d.better)).collect();
        (untraced::run(a.workload, a.seed, a.seconds), e2e)
    };
    for line in &outcome.notes {
        println!("{line}");
    }
    for (what, ok) in &outcome.checks {
        println!("check {}: {what}", if *ok { "ok" } else { "FAILED" });
    }
    let result = outcome.result(&declared)?;
    if let Some(path) = &a.out {
        let file = Json::Obj(vec![
            ("workload".into(), Json::Str(a.workload.name().to_string())),
            ("seed".into(), Json::Num(a.seed as f64)),
            ("trace".into(), Json::Num(f64::from(u8::from(a.trace)))),
            ("fingerprint".into(), fingerprint),
            ("result".into(), result.clone()),
        ]);
        std::fs::write(path, file.render() + "\n")
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    println!("{}", result.render());
    Ok(outcome.correct())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match args::parse(&argv) {
        Err(e) => {
            eprintln!("error: {e}\n{}", args::USAGE);
            2
        }
        Ok(args::Command::Compare(a, b)) => {
            let load = |p: &str| {
                std::fs::read_to_string(p)
                    .map_err(|e| format!("cannot read {p}: {e}"))
                    .and_then(|t| Json::parse(&t).map_err(|e| format!("{p}: {e}")))
            };
            match load(&a).and_then(|ja| load(&b).and_then(|jb| host::compare(&ja, &jb))) {
                Ok(table) => {
                    print!("{table}");
                    0
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    3
                }
            }
        }
        Ok(args::Command::Run(a)) => match run(&a) {
            Ok(true) => 0,
            Ok(false) => 1,
            Err(e) => {
                eprintln!("error: {e}");
                2
            }
        },
    };
    std::process::exit(code);
}
