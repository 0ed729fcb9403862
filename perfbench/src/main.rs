//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload protect|order2|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Every workload makes its inputs from
//! `--seed`, sets up, measures closed-loop operations for at least
//! `--seconds` seconds (and until the p90 latency has ten samples beyond
//! it), checks every output, and prints as its last stdout line one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. With `--trace 0`
//! the metrics are the end-to-end ones, measured with tracing off; with
//! `--trace 1` they are the per-layer ones, from a run that alternates
//! traced and untraced passes. The line before it is a stamp (git rev,
//! cores, threads, seed, input sizes, build profile); stderr carries a
//! readable table.

mod layers;
mod order2;
mod protect;
mod serve;
mod stats;

use std::fmt::Display;
use std::process::ExitCode;

use stats::{catalogue, result_line, Tally, END_TO_END, PER_LAYER};

/// The command-line parameters every workload receives.
#[derive(Clone, Debug, PartialEq)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Campaign worker threads: [`CAMPAIGN_THREADS`].
    pub threads: usize,
}

/// Every campaign runs on one thread. On a shared host a fork-join over
/// both cores of a 2-vCPU machine waits for whichever core the host stalls
/// at the moment: alternating runs of one and two threads, the two-thread
/// runs spread about twice as wide from run to run. One thread measures the
/// program rather than its neighbours; `nproc` is still in the stamp.
pub const CAMPAIGN_THREADS: usize = 1;

/// What a workload measured.
pub struct Report {
    pub tally: Tally,
    /// Metric values by name; names must be in the mode's catalogue.
    pub values: Vec<(&'static str, f64)>,
    /// Input sizes and counts for the stamp.
    pub inputs: Vec<(&'static str, String)>,
}

impl Report {
    pub fn new(tally: Tally) -> Self {
        Report {
            tally,
            values: Vec::new(),
            inputs: Vec::new(),
        }
    }

    /// Records one stamp entry.
    pub fn input(&mut self, key: &'static str, value: impl Display) {
        self.inputs.push((key, value.to_string()));
    }
}

/// Seeded input stream: every generated input is a function of `--seed`.
pub struct SeedStream(u64);

impl SeedStream {
    pub fn new(seed: u64, salt: u64) -> Self {
        SeedStream(polaris_sim::campaign::splitmix64(seed ^ salt))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        polaris_sim::campaign::splitmix64(self.0)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `k` distinct items of `pool`, in draw order (`k <= pool.len()`).
    pub fn pick<T: Copy>(&mut self, pool: &[T], k: usize) -> Vec<T> {
        let mut rest = pool.to_vec();
        (0..k)
            .map(|_| {
                let i = self.below(rest.len());
                rest.swap_remove(i)
            })
            .collect()
    }
}

const USAGE: &str =
    "usage: perfbench --workload protect|order2|serve --seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed takes an integer, got `{value}`"))?,
                );
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("--seconds takes a number, got `{value}`"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} outside (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("missing --workload\n{USAGE}"))?;
    if !["protect", "order2", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`\n{USAGE}"));
    }
    Ok(RunConfig {
        workload,
        seed: seed.ok_or_else(|| format!("missing --seed\n{USAGE}"))?,
        seconds: seconds.ok_or_else(|| format!("missing --seconds\n{USAGE}"))?,
        trace: trace.ok_or_else(|| format!("missing --trace\n{USAGE}"))?,
        threads: CAMPAIGN_THREADS,
    })
}

/// The commit being measured, read from `.git` in the working directory
/// (`unknown` in an exported tree, which has none).
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|rev| rev.trim_end().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn stamp_line(cfg: &RunConfig, report: &Report) -> String {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let mut fields = vec![
        ("workload".to_string(), format!("\"{}\"", cfg.workload)),
        ("git_rev".into(), format!("\"{}\"", git_rev())),
        ("nproc".into(), cores.to_string()),
        ("threads".into(), cfg.threads.to_string()),
        ("seed".into(), cfg.seed.to_string()),
        ("seconds".into(), cfg.seconds.to_string()),
        ("trace".into(), u8::from(cfg.trace).to_string()),
        (
            "profile".into(),
            format!(
                "\"{}\"",
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
            ),
        ),
    ];
    for (k, v) in &report.inputs {
        let v = if v.parse::<f64>().is_ok() {
            v.clone()
        } else {
            format!("\"{v}\"")
        };
        fields.push(((*k).to_string(), v));
    }
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{\"stamp\": {{{}}}}}", body.join(", "))
}

fn run(cfg: &RunConfig) -> Result<(Report, Vec<stats::Metric>), String> {
    let mut report = match cfg.workload.as_str() {
        "protect" => protect::run(cfg)?,
        "order2" => order2::run(cfg)?,
        "serve" => serve::run(cfg)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    let metrics = if cfg.trace {
        catalogue(&PER_LAYER, &report.values)?
    } else {
        let rss_kb = polaris_bench::peak_rss_kb()
            .ok_or("peak RSS is unavailable: /proc/self/status has no VmHWM")?;
        report.values.push(("peak_rss_mb", rss_kb as f64 / 1024.0));
        let missing: Vec<&str> = END_TO_END
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !report.values.iter().any(|(k, _)| k == n))
            .collect();
        if !missing.is_empty() {
            return Err(format!("end-to-end metrics not measured: {missing:?}"));
        }
        catalogue(&END_TO_END, &report.values)?
    };
    Ok((report, metrics))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        Ok((report, metrics)) => {
            for m in &metrics {
                eprintln!("  {:<38} {:>16.6} {}", m.name, m.value, m.unit);
            }
            eprintln!(
                "  {:<38} {:>16} (failed {})",
                "operations attempted", report.tally.attempted, report.tally.failed
            );
            println!("{}", stamp_line(&cfg, &report));
            println!("{}", result_line(report.tally, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cfg.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let cfg = parse_args(&args("--workload serve --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (cfg.workload.as_str(), cfg.seed, cfg.seconds, cfg.trace),
            ("serve", 3, 10.0, true)
        );
        assert!(cfg.threads >= 1);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload serve --seed x --seconds 1 --trace 0",
            "--workload serve --seed 1 --seconds 0 --trace 0",
            "--workload serve --seed 1 --seconds 1 --trace 2",
            "--workload serve --seed 1 --seconds 1",
            "--workload serve --seed 1 --seconds 1 --trace",
            "--bogus 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
