//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload <ladder|serve-closed|serve-open> --seed <n>
//!           --seconds <n> --trace <0|1> [--size quick|test] [--inject-wrong]
//! ```
//!
//! Prints a report, then one JSON result line. Exits 1 when an output
//! is wrong or the run cannot measure, 2 on bad arguments or an invalid
//! `NINJA_ISA`.

use std::path::PathBuf;
use std::process::ExitCode;

use ninja_kernels::ProblemSize;
use ninja_perfbench::host::steal_during;
use ninja_perfbench::{run, Config, Workload};

const USAGE: &str = "usage: perfbench --workload <ladder|serve-closed|serve-open> --seed <n> \
                     --seconds <n> --trace <0|1> [--size quick|test] [--inject-wrong]";

fn parse(args: &[String]) -> Result<Config, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut size = ProblemSize::Quick;
    let mut inject_wrong = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--inject-wrong" {
            inject_wrong = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--size" => {
                size = match ProblemSize::from_name(value) {
                    Some(s @ (ProblemSize::Quick | ProblemSize::Test)) => s,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
        inject_wrong,
        trace_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // An invalid NINJA_ISA would silently fall back to detection inside
    // the libraries; refuse it before anything is measured.
    let isa = match ninja_simd::isa::resolve_from_env() {
        Ok(k) => k,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench {} seed={} seconds={} trace={} size={} isa={} threads={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.size,
        isa.name(),
        ninja_parallel::hardware_threads()
    );
    let (outcome, steal) = steal_during(|| run(&cfg));
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            return ExitCode::from(1);
        }
    };
    for line in &outcome.lines {
        println!("{line}");
    }
    if let Some(share) = steal {
        println!(
            "host: steal {:.1}% of CPU time during the run",
            100.0 * share
        );
    }
    println!(
        "failed_frac = {} ({} failed / {} attempted)",
        outcome.tally.failed_frac(),
        outcome.tally.failed,
        outcome.tally.attempted
    );
    match outcome.json_line(cfg.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
