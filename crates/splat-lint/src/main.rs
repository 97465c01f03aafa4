//! CLI for the workspace invariant linter.
//!
//! ```text
//! cargo run -p splat-lint -- check [--json] [--root <path>]
//! cargo run -p splat-lint -- rules
//! ```
//!
//! `check` exits 0 when the tree is clean and 1 when any error-severity
//! finding (or unused waiver) survives; `--json` switches the report to
//! one machine-readable JSON document on stdout.

use std::path::PathBuf;
use std::process::ExitCode;

use splat_lint::rules::all_rules;
use splat_lint::{check_workspace, Config};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = None;
    let mut json = false;
    let mut root = PathBuf::from(".");
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "check" | "rules" if command.is_none() => command = Some(arg.clone()),
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
    match command.as_deref() {
        Some("rules") => {
            let config = Config::load(&root).unwrap_or_default();
            for rule in all_rules() {
                println!(
                    "{:<20} {:<7} {}",
                    rule.id(),
                    config
                        .severity(rule.id(), rule.default_severity())
                        .to_string(),
                    short_description(rule.id()),
                );
            }
            ExitCode::SUCCESS
        }
        Some("check") => match check_workspace(&root) {
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
        },
        _ => usage("expected a command (`check` or `rules`)"),
    }
}

const USAGE: &str = "splat-lint — workspace invariant linter\n\n\
USAGE:\n    splat-lint check [--json] [--root <path>]\n    splat-lint rules [--root <path>]\n\n\
OPTIONS:\n    --json          emit one JSON document instead of human output\n    --root <path>   workspace root (default: current directory)\n";

fn usage(message: &str) -> ExitCode {
    eprintln!("splat-lint: {message}\n\n{USAGE}");
    ExitCode::FAILURE
}

fn short_description(id: &str) -> &'static str {
    match id {
        "no-index-panic" => "audit xs[i] index expressions in library code",
        "lock-discipline" => "engine mutexes are leaf locks; no prepare under the registry guard",
        _ => "",
    }
}
