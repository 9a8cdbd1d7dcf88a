//! End-to-end benchmark of one Table 2 cell and of the live platform.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload (`perfbench/run.py` builds this binary and
//! starts it with `CA_THREADS` set). The workload seed shapes every input;
//! the program under test only ever sees the generated inputs. With
//! `--trace 0` the run reports the end-to-end metrics, measured with no
//! instrumentation in the timed path; with `--trace 1` it reports the
//! per-layer breakdown and the tracing overhead. Both modes run every
//! output check. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod probe;
mod report;
mod serve;
mod table2;

use report::Report;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} outside (0, 120]"));
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace {t} must be 0 or 1")),
    };
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The thread count is part of the workload definition: it is set
    // explicitly and recorded, never inferred from the machine.
    let threads = match std::env::var("CA_THREADS").ok().and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if n > 0 => n,
        _ => {
            eprintln!("perfbench: set CA_THREADS explicitly (run through perfbench/run.py)");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} CA_THREADS {threads} nproc {nproc}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut report = Report::new(args.trace);
    match args.workload.as_str() {
        "table2-ml10m" => table2::run(table2::Cell::Ml10m, &args, &mut report),
        "table2-ml20m-ivf" => table2::run(table2::Cell::Ml20mIvf, &args, &mut report),
        "serve-live-ivf" => serve::run(&args, &mut report),
        w => {
            eprintln!("perfbench: unknown workload {w}");
            return ExitCode::from(2);
        }
    }
    report.set("peak_rss_mb", "MB", report::peak_rss_mb());
    report.finish()
}
