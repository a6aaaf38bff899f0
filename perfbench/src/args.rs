//! Command-line parsing for the benchmark binary.

use crate::workload::Workload;

/// One measured run: `--workload W --seed N --seconds S --trace 0|1`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Optional file receiving the fingerprint-stamped result.
    pub out: Option<String>,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Run(RunArgs),
    /// `compare A B`: compares two `--out` result files.
    Compare(String, String),
}

pub const USAGE: &str = "usage: perfbench --workload <registry-100k|classic-un|classic-hy> \
--seed <u64> --seconds <1..=3600> --trace <0|1> [--out FILE]\n       perfbench compare A.json B.json";

/// Parses a workload seed: a plain decimal `u64`, nothing else (no sign,
/// no whitespace, no radix prefix), so one seed string names one input.
pub fn parse_seed(s: &str) -> Result<u64, String> {
    if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!("--seed must be a decimal u64, got {s:?}"));
    }
    s.parse::<u64>().map_err(|_| format!("--seed out of range for u64: {s}"))
}

fn parse_seconds(s: &str) -> Result<u64, String> {
    match s.parse::<u64>() {
        Ok(n) if (1..=3600).contains(&n) && s.bytes().all(|b| b.is_ascii_digit()) => Ok(n),
        _ => Err(format!("--seconds must be a whole number in 1..=3600, got {s:?}")),
    }
}

fn parse_trace(s: &str) -> Result<bool, String> {
    match s {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("--trace must be 0 or 1, got {s:?}")),
    }
}

/// Parses the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Command, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return match args {
            [_, a, b] => Ok(Command::Compare(a.clone(), b.clone())),
            _ => Err("compare takes exactly two result files".to_string()),
        };
    }
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(parse_seed(value)?),
            "--seconds" => seconds = Some(parse_seconds(value)?),
            "--trace" => trace = Some(parse_trace(value)?),
            "--out" => out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Command::Run(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        out,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn seeds_are_plain_decimal_u64() {
        assert_eq!(parse_seed("0"), Ok(0));
        assert_eq!(parse_seed("42"), Ok(42));
        assert_eq!(parse_seed("007"), Ok(7));
        assert_eq!(parse_seed("18446744073709551615"), Ok(u64::MAX));
        for bad in ["", "-1", "+1", " 1", "1 ", "0x2a", "1.5", "1e3", "abc", "18446744073709551616"]
        {
            assert!(parse_seed(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn full_invocation_parses() {
        let cmd = parse(&argv("--workload classic-un --seed 9 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            cmd,
            Command::Run(RunArgs {
                workload: Workload::ClassicUn,
                seed: 9,
                seconds: 10,
                trace: true,
                out: None
            })
        );
    }

    #[test]
    fn bad_invocations_are_refused() {
        for bad in [
            "--workload classic-un --seconds 10",
            "--workload nope --seed 1 --seconds 10",
            "--workload classic-un --seed 1 --seconds 0",
            "--workload classic-un --seed 1 --seconds 10 --trace 2",
            "--workload classic-un --seed -3 --seconds 10",
            "--workload classic-un --seed",
            "--bogus 1",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn compare_takes_two_files() {
        assert_eq!(
            parse(&argv("compare a.json b.json")),
            Ok(Command::Compare("a.json".into(), "b.json".into()))
        );
        assert!(parse(&argv("compare a.json")).is_err());
    }
}
