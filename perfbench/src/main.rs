//! The repository benchmark. One command runs one named workload for a
//! fixed time, checks every answer, and prints its metrics as the last
//! line of standard output:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-sync --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics with no instrumentation in
//! the program's path. `--trace 1` runs a fixed slice of the workload
//! twice, plain and with every layer timed from outside (see
//! [`timed::Timed`] and [`replay`]), requires the two to agree field by
//! field, and reports the per-layer metrics. See `perfbench/README.md`.

mod check;
mod layers;
mod paper_sync;
mod replay;
mod scale_repair;
mod service_mix;
mod speed;
mod stats;
mod timed;

use std::process::ExitCode;
use std::time::Duration;

use layers::Metric;
use stats::Digest;

/// The seed whose outcome digest is pinned in `pinned_digests.txt`.
const DEFAULT_SEED: u64 = 1;

/// `workload digest` lines: the outcome digest of the default seed.
const PINNED: &str = include_str!("../pinned_digests.txt");

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Run {
    /// Operations (trials, repairs, sessions) attempted.
    pub attempted: u64,
    /// Operations that errored, were refused, answered wrongly, or (outside
    /// paper-sync) were cut off.
    pub failed: u64,
    /// Correctness violations; any makes the run incorrect.
    pub problems: Vec<String>,
    /// Digest over the fixed leading slice of operations.
    pub digest: Digest,
    pub metrics: Vec<Metric>,
}

/// Worker threads for the executors that take a count: the machine's
/// parallelism, capped at 2 so the load fits the two-core reference box.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

const USAGE: &str = "usage: discsp-perfbench --workload paper-sync|scale-repair|service-mix \
     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: Duration::from_secs(10),
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = Duration::from_secs(number()?.clamp(1, 120)),
            "--trace" => {
                args.trace = match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace is 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn pinned_digest(workload: &str) -> Option<&'static str> {
    PINNED.lines().find_map(|line| {
        let (name, digest) = line.split_once(' ')?;
        (name == workload).then(|| digest.trim())
    })
}

fn json(run: &Run) -> String {
    let metrics: Vec<String> = run
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.problems.is_empty(),
        run.attempted,
        run.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("discsp-perfbench: {msg}\n{}", USAGE);
            return ExitCode::from(2);
        }
    };
    type Phase = fn(&Args, &mut Run);
    let (measure, traced): (Phase, Phase) = match args.workload.as_str() {
        "paper-sync" => (paper_sync::measure, paper_sync::traced),
        "scale-repair" => (scale_repair::measure, scale_repair::traced),
        "service-mix" => (service_mix::measure, service_mix::traced),
        other => {
            eprintln!("discsp-perfbench: unknown workload {other:?}\n{}", USAGE);
            return ExitCode::from(2);
        }
    };
    let mut run = Run::default();
    if args.trace {
        traced(&args, &mut run);
    } else {
        measure(&args, &mut run);
    }
    if !args.trace {
        match peak_rss_mb() {
            Ok(mb) => run.metrics.push(("peak_rss_mb", mb, "MiB")),
            Err(msg) => {
                eprintln!("discsp-perfbench: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    let digest = run.digest.hex();
    eprintln!(
        "{}: seed {} outcome digest {digest}",
        args.workload, args.seed
    );
    if args.seed == DEFAULT_SEED {
        match pinned_digest(&args.workload) {
            Some(pinned) if pinned == digest => {}
            Some(pinned) => run.problems.push(format!(
                "outcome digest {digest} differs from pinned {pinned}"
            )),
            None => run
                .problems
                .push(format!("no digest pinned for {}", args.workload)),
        }
    }
    for problem in &run.problems {
        eprintln!("INCORRECT: {problem}");
    }
    for (name, value, unit) in &run.metrics {
        eprintln!("  {name:<28} {value:>16.4} {unit}");
    }
    println!("{}", json(&run));
    ExitCode::SUCCESS
}
