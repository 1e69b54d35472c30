//! The repository's benchmark: four pinned workloads over the whole
//! gateway → platform → mining/crowd → WAL stack, four end-to-end
//! metrics and a per-layer ledger. See `benchmark/README.md`.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload in this process and prints its result object as the last
//! line. Without `--workload`, every workload runs in a child process
//! of this binary (so CPU time and peak RSS are per workload), once
//! untraced and once traced.

mod check;
mod json;
mod load;
mod metrics;
mod replay;
mod run;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use workloads::Workload;

/// Measured seconds when `--seconds` is not given (the `run_seconds` of
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: u64 = 20;

pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: u64,
    /// `None`: both passes (suite mode only).
    pub trace: Option<bool>,
    pub out: Option<PathBuf>,
    pub repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        out: None,
        repeat: 1,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => args.trace = Some(number(value()?)? != 0),
            "--repeat" => args.repeat = number(value()?)? as usize,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.seconds == 0 || args.repeat == 0 {
        return Err("--seconds and --repeat must be at least 1".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cp-benchmark: {e}");
            eprintln!(
                "usage: [--workload hot_reuse|cold_mine|crowd_city|wire_mix] [--seed N] \
                 [--seconds S] [--trace 0|1] [--repeat N] [--out FILE]"
            );
            std::process::exit(2);
        }
    };
    let ok = match args.workload {
        Some(workload) => {
            let result =
                run::run_workload(workload, args.seed, args.seconds, args.trace == Some(true));
            result.print();
            if let Some(path) = &args.out {
                std::fs::write(path, result.to_json() + "\n").expect("writing --out");
            }
            result.correct
        }
        None => suite::run(&args),
    };
    std::process::exit(if ok { 0 } else { 1 });
}
