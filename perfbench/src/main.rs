//! Benchmark of `Astra::optimize()`, end to end and per layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <milstm-journal|milstm-restart> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Each iteration is one child process that sets up an optimizer, makes
//! one `optimize()` call and checks its output. The run repeats iterations
//! for `--seconds` and prints one JSON line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics from span-traced iterations with
//! `--trace 1`. See `README.md` next to this file.

mod bench;
mod check;
mod files;
mod layers;
mod protocol;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use layers::StoreDirs;
use protocol::Out;
use workload::Workload;

const USAGE: &str = "usage: perfbench --workload <milstm-journal|milstm-restart> [--seed <n>] \
[--seconds <n>] [--trace <0|1>] [--tiny] [--inject-mismatch]";

/// Command-line options.
#[derive(Debug)]
pub struct Args {
    pub workload: Workload,
    /// Labels the run's output. Neither workload depends on it.
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Shrinks every model (the self-test uses it).
    pub tiny: bool,
    /// Corrupts one iteration's reported plan, to show the check fails.
    pub inject_mismatch: bool,
    /// Set in the child process that runs one iteration: `iterate` or
    /// `trace`.
    child: Option<String>,
    store: Option<PathBuf>,
    pristine: Option<PathBuf>,
    scratch: Option<PathBuf>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::MilstmJournal,
        seed: 1,
        seconds: 10,
        trace: false,
        tiny: false,
        inject_mismatch: false,
        child: None,
        store: None,
        pristine: None,
        scratch: None,
    };
    let mut workload = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--tiny" => args.tiny = true,
            "--inject-mismatch" => args.inject_mismatch = true,
            _ => {
                let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                let number = || value.parse::<u64>().map_err(|_| format!("invalid {flag} {value}"));
                match flag.as_str() {
                    "--workload" => {
                        workload = Some(
                            Workload::parse(value)
                                .ok_or_else(|| format!("unknown workload {value}"))?,
                        );
                    }
                    "--seed" => args.seed = number()?,
                    "--seconds" => args.seconds = number()?,
                    "--trace" => {
                        args.trace = match value.as_str() {
                            "0" => false,
                            "1" => true,
                            _ => return Err(format!("invalid --trace {value}")),
                        }
                    }
                    "--child" => args.child = Some(value.clone()),
                    "--store" => args.store = Some(value.into()),
                    "--pristine" => args.pristine = Some(value.into()),
                    "--scratch" => args.scratch = Some(value.into()),
                    _ => return Err(format!("unknown flag {flag}")),
                }
            }
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// The child side: one iteration, reported on standard output.
fn child(args: &Args, mode: &str) -> Result<(), String> {
    let traced = match mode {
        "iterate" => false,
        "trace" => true,
        _ => return Err(format!("unknown child mode {mode}")),
    };
    let scratch = args.scratch.as_deref().ok_or("--scratch is required")?;
    let store = args.store.as_deref().ok_or("--store is required")?;
    let dirs = StoreDirs { store, pristine: args.pristine.as_deref(), scratch };
    let mut out = Out::default();
    if let Err(e) = workload::iterate(args.workload, args.tiny, &dirs, traced, &mut out) {
        out.error(&e);
    }
    print!("{}", out.into_text());
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&raw).and_then(|args| match &args.child {
        Some(mode) => child(&args, mode),
        None => bench::run(&args),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
