//! End-to-end and per-layer benchmark of the labelling service.
//!
//! ```sh
//! perfbench --workload <http_campaign|ingest_replay|restart> --seed <n> \
//!           --seconds <s> --trace <0|1> [--small] [--trace-out <file>]
//! ```
//!
//! Prints one JSON result as its last line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
//! Exits 1 when a correctness gate failed, 2 on bad arguments. `run.py`
//! builds this package and is the command to run; see `README.md`.

mod client;
mod layers;
mod lifecycle;
mod replay;
mod stats;
mod trace;
mod visits;
mod workloads;
mod world;

use std::process::ExitCode;

use trace::Tracer;
use workloads::Run;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    small: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        small: false,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = matches!(value()?.as_str(), "1" | "true"),
            "--trace-out" => args.trace_out = Some(value()?),
            "--small" => args.small = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        scale: if args.small {
            world::SMALL
        } else {
            world::FULL
        },
        tracer: args.trace.then_some(&tracer),
    };
    let outcome = match args.workload.as_str() {
        "http_campaign" => workloads::http_campaign(&run),
        "ingest_replay" => workloads::ingest_replay(&run),
        _ => workloads::restart(&run),
    };
    if let Some(path) = &args.trace_out {
        if tracer.enabled() {
            if let Err(e) = std::fs::write(path, tracer.to_json()) {
                eprintln!("perfbench: writing {path}: {e}");
            }
        }
    }
    for failure in outcome.failures.iter().take(20) {
        eprintln!("perfbench: FAILED: {failure}");
    }
    println!("{}", outcome.to_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
