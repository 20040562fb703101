//! Benchmark command line:
//! `mx-perfbench --workload <study|delta|serve> --seed <n> --seconds <s> --trace <0|1>`.
//!
//! Prints a metric table on stderr, then two lines on stdout: the run
//! facts (mean throughput, median op, CPU per item, host-speed probe,
//! op count, parallelism) and, last, the result object. Exits 1 when
//! an output check failed, 2 on a usage or set-up error (printing no
//! result).
#![deny(unsafe_code)]
#![warn(missing_docs)]

use mx_perfbench::{run, Scale, Workload};

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds: want a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: want 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mx-perfbench: {e}");
            eprintln!("usage: mx-perfbench --workload <study|delta|serve> --seed <n> [--seconds <s>] [--trace <0|1>]");
            std::process::exit(2);
        }
    };
    let outcome = match run(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &Scale::full(),
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("mx-perfbench: {} run failed: {e}", args.workload.name());
            std::process::exit(2);
        }
    };
    for m in &outcome.metrics {
        eprintln!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for (name, value) in &outcome.info {
        eprintln!("{:<40} {:>16.4} (run fact)", name, value);
    }
    for f in &outcome.failures {
        eprintln!("mx-perfbench: check failed: {f}");
    }
    println!("{}", outcome.info_json());
    println!("{}", outcome.to_json());
    if !outcome.correct() {
        std::process::exit(1);
    }
}
