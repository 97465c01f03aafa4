//! `gstg-benchmark`: one command for the whole stack.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --traced] [--smoke]
//! ```
//!
//! Without `--workload` every workload runs in turn. For each workload the
//! program prints every metric by name with its unit, the exact counts it
//! checked (`checks`), and as the last line one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. It exits non-zero when
//! any output was wrong.

use std::fmt::Write as _;
use std::process::ExitCode;

use gstg_benchmark::inputs::Workload;
use gstg_benchmark::run::{Outcome, SETUP_REPEATS};
use gstg_benchmark::spec::{END_TO_END, PER_LAYER};
use gstg_benchmark::{run, traced};

/// Default measured seconds per run (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 15.0;
/// `--smoke`: half a second of measured work per workload and one set-up;
/// a correctness pass over every path, not a result.
const SMOKE_SECONDS: f64 = 0.5;

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    setup_repeats: usize,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: gstg-benchmark [--workload {}] [--seed N] [--seconds S] \
         [--trace 0|1 | --traced] [--smoke]",
        names.join("|")
    )
}

fn parse_options() -> Result<Options, String> {
    let mut options = Options {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        setup_repeats: SETUP_REPEATS,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let workload = Workload::from_name(&name)
                    .ok_or_else(|| format!("unknown workload `{name}`"))?;
                options.workloads = vec![workload];
            }
            "--seed" => {
                options.seed = value()?
                    .parse()
                    .map_err(|_| "--seed: not a number".to_string())?;
            }
            "--seconds" => {
                options.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|seconds: &f64| seconds.is_finite() && *seconds > 0.0)
                    .ok_or("--seconds: not a positive number")?;
            }
            "--trace" => {
                options.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "--traced" => options.traced = true,
            "--smoke" => {
                options.seconds = SMOKE_SECONDS;
                options.setup_repeats = 1;
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    Ok(options)
}

/// Prints one workload's report; returns whether every output was right.
fn report(workload: Workload, options: &Options, mut outcome: Outcome) -> bool {
    let declared: &[(&str, &str)] = if options.traced {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let rows = match outcome.metrics.declared(declared) {
        Ok(rows) => rows,
        Err(problems) => {
            for problem in problems {
                outcome.fail(problem);
            }
            Vec::new()
        }
    };
    let correct = outcome.failed == 0;
    println!(
        "== {} seed {} seconds {} trace {}",
        workload.name(),
        options.seed,
        options.seconds,
        u8::from(options.traced)
    );
    for (name, value, unit) in &rows {
        println!("{name:<44} {value:>16.4} {unit}");
    }
    for note in &outcome.notes {
        println!("  note  {note}");
    }
    for (name, value) in &outcome.checks {
        println!("  checks  {name} = {value}");
    }
    for failure in &outcome.failures {
        println!("  FAILED  {failure}");
    }
    let mut metrics = String::new();
    for (index, (name, value, unit)) in rows.iter().enumerate() {
        if index > 0 {
            metrics.push(',');
        }
        let _ = write!(
            metrics,
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    correct
}

fn main() -> ExitCode {
    let options = match parse_options() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    for &workload in &options.workloads {
        let result = if options.traced {
            traced::run(workload, options.seed, options.seconds)
        } else {
            run::run(
                workload,
                options.seed,
                options.seconds,
                options.setup_repeats,
            )
        };
        match result {
            Ok(outcome) => all_correct &= report(workload, &options, outcome),
            Err(error) => {
                eprintln!("{}: {error}", workload.name());
                return ExitCode::from(1);
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
