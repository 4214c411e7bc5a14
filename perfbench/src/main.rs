//! Layer-isolating benchmark for the commopt workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-timing|full-verify|compile-lint> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload: set-up (repeated, median reported),
//! then a closed loop of whole passes over the workload's cases, one
//! caller on one thread, in a seeded order, until `--seconds` have passed.
//! Every operation's outputs are checked. The last line of standard output
//! is one JSON object: the end-to-end metrics with `--trace 0`, the
//! per-layer ledger with `--trace 1`. See `perfbench/README.md`.
//!
//! Self-check options (not used by timed runs):
//! - `--repeat <lint|sim-timing|sim-full>` makes one layer's call twice on
//!   every operation of the workloads that make it;
//! - `--corrupt-expected` corrupts one expected entry;
//! - `--record` runs one pass and prints the expected-output table.

mod ledger;
mod workloads;

use ledger::{Ledger, Parent};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Expected, Repeat, NAMES};

/// Set-ups per run: at least this many, and at least [`SETUP_MIN_S`] of
/// them; `setup_s` is their median.
const SETUP_REPS: usize = 5;
const SETUP_MIN_S: f64 = 0.5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<Repeat>,
    corrupt: bool,
    record: bool,
}

const USAGE: &str = "usage: perfbench --workload <paper-timing|full-verify|compile-lint> \
--seed <n> --seconds <s> --trace <0|1> [--repeat <lint|sim-timing|sim-full>] \
[--corrupt-expected] [--record]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        repeat: None,
        corrupt: false,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other}")),
                }
            }
            "--repeat" => {
                let v = value()?;
                args.repeat =
                    Some(Repeat::parse(&v).ok_or(format!("--repeat: unknown layer {v}"))?);
            }
            "--corrupt-expected" => args.corrupt = true,
            "--record" => args.record = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !NAMES.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.record {
        return record(&args.workload);
    }
    let mut ledger = Ledger::new(args.trace);

    // Set-up, repeated; the ledger keeps only the last one.
    let mut setups = Vec::new();
    let mut workload = None;
    while setups.len() < SETUP_REPS || setups.iter().sum::<f64>() < SETUP_MIN_S {
        drop(workload.take());
        ledger.clear();
        ledger.enter(Parent::Setup);
        let expected = Expected::load(&args.workload, args.corrupt);
        let t = Instant::now();
        workload = Some(workloads::setup(
            &args.workload,
            args.seed,
            &mut ledger,
            expected,
        ));
        setups.push(t.elapsed().as_secs_f64());
    }
    let last_setup_s = *setups.last().expect("at least one set-up");
    let setup_s = median(&mut setups);
    let mut w = workload.expect("at least one set-up");
    let cases = w.cases();

    // The closed loop: whole passes, each in a seeded order.
    let mut rng = commopt_testkit::Rng::new(args.seed);
    let budget = Duration::from_secs_f64(args.seconds);
    let mut latencies = Vec::new();
    let mut per_case = vec![Vec::new(); cases.len()];
    let mut failed = 0u64;
    let mut passes = 0u64;
    let start = Instant::now();
    while passes == 0 || start.elapsed() < budget {
        let mut order: Vec<usize> = (0..cases.len()).collect();
        for k in (1..order.len()).rev() {
            order.swap(k, rng.usize(0, k));
        }
        for i in order {
            ledger.enter(Parent::Op(latencies.len() as u64));
            let t = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| w.run(i, &mut ledger, args.repeat)));
            let dt = t.elapsed().as_secs_f64();
            latencies.push(dt);
            per_case[i].push(dt);
            match outcome {
                Ok(Ok(())) => {}
                Ok(Err(msg)) => {
                    failed += 1;
                    eprintln!("perfbench: FAILED {msg}");
                }
                Err(_) => {
                    failed += 1;
                    eprintln!("perfbench: FAILED {} panicked", cases[i]);
                }
            }
        }
        passes += 1;
    }
    let wall_s = start.elapsed().as_secs_f64();
    let attempted = latencies.len() as u64;
    let op_s: f64 = latencies.iter().sum();
    // Every pass runs the same cases. A typical pass takes each case's
    // median latency, so a burst of host contention that hits one pass
    // cannot move the throughput.
    let typical_pass_s: f64 = per_case.iter_mut().map(|v| median(v)).sum();
    let ops_per_s = cases.len() as f64 / typical_pass_s;
    eprintln!(
        "perfbench: {} seed {}: {attempted} operations in {passes} passes of {}, {wall_s:.2} s",
        args.workload,
        args.seed,
        cases.len(),
    );

    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let spans = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
        let file = spans.join(format!("{}-seed{}.tsv", args.workload, args.seed));
        if let Err(e) =
            std::fs::create_dir_all(&spans).and_then(|_| std::fs::write(&file, ledger.spans_tsv()))
        {
            eprintln!("perfbench: cannot write {}: {e}", file.display());
            return ExitCode::FAILURE;
        }
        let mut m = ledger.metrics(passes, op_s, last_setup_s);
        m.push(("trace.ops_per_s".into(), ops_per_s, "1/s"));
        m
    } else {
        let mut sorted = latencies;
        sorted.sort_by(f64::total_cmp);
        vec![
            ("setup_s".into(), setup_s, "s"),
            ("ops_per_s".into(), ops_per_s, "1/s"),
            ("op_ms_p50".into(), quantile(&sorted, 0.5) * 1e3, "ms"),
            ("op_ms_p90".into(), quantile(&sorted, 0.9) * 1e3, "ms"),
            ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
            (
                "pass_rate".into(),
                (attempted - failed) as f64 / attempted as f64,
                "ratio",
            ),
        ]
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// Runs one pass with a recorder and prints the expected-output table
/// (the format of `perfbench/expected.tsv`).
fn record(workload: &str) -> ExitCode {
    let mut ledger = Ledger::new(false);
    let mut w = workloads::setup(workload, 0, &mut ledger, Expected::recorder());
    let mut failed = false;
    for (i, case) in w.cases().iter().enumerate() {
        if let Err(e) = w.run(i, &mut ledger, None) {
            eprintln!("perfbench: {case}: {e}");
            failed = true;
        }
    }
    for (case, value) in w.recorded() {
        println!("{workload}\t{case}\t{value}");
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of sorted samples.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `VmHWM` (peak resident set) of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
