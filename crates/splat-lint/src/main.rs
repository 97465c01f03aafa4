//! CLI for the workspace invariant linter.
//!
//! ```text
//! cargo run -p splat-lint -- check [--json] [--root <path>]
//! ```
//!
//! `check` exits 0 when the tree is clean and 1 when any finding (or
//! unused waiver) survives; `--json` switches the report to one
//! machine-readable JSON document on stdout.

use std::path::PathBuf;
use std::process::ExitCode;

use splat_lint::check_workspace;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut check = false;
    let mut json = false;
    let mut root = PathBuf::from(".");
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "check" if !check => check = true,
            "--json" => json = true,
            "--root" => match iter.next() {
                Some(path) => root = PathBuf::from(path),
                None => return usage("--root needs a path"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    if !check {
        return usage("expected the command `check`");
    }
    match check_workspace(&root) {
        Ok(report) => {
            if json {
                println!("{}", report.to_json());
            } else {
                print!("{}", report.render_human());
            }
            if report.has_errors() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(message) => {
            eprintln!("splat-lint: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "splat-lint — workspace invariant linter\n\n\
USAGE:\n    splat-lint check [--json] [--root <path>]\n\n\
OPTIONS:\n    --json          emit one JSON document instead of human output\n    --root <path>   workspace root (default: current directory)\n";

fn usage(message: &str) -> ExitCode {
    eprintln!("splat-lint: {message}\n\n{USAGE}");
    ExitCode::FAILURE
}
