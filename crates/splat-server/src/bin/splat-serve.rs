//! `splat-serve`: the network front door as a process.
//!
//! ```text
//! splat-serve [--addr 127.0.0.1:8090] [--workers 4] [--engine-workers 2]
//!             [--queue-capacity 256] [--admission reject|block|shed]
//!             [--quality degrade|full|t1|t2|t3]
//!             [--pending-connections 64] [--stream-window 4]
//!             [--read-timeout-ms 5000] [--drain-deadline-ms 5000]
//! ```
//!
//! Prints one JSON line `{"listening":"<addr>"}` once the socket is
//! bound, serves until `POST /shutdown` arrives, then prints the final
//! `{"server":…,"engine":…}` counter snapshots and exits 0.

use std::process::ExitCode;
use std::sync::Arc;

use splat_engine::{AdmissionPolicy, Engine, QualityPolicy, QualityTier};
use splat_server::{Server, ServerConfig};

struct Args {
    config: ServerConfig,
    engine_workers: usize,
    queue_capacity: usize,
    admission: AdmissionPolicy,
    quality: QualityPolicy,
}

const USAGE: &str = "usage: splat-serve [--addr HOST:PORT] [--workers N] \
                     [--engine-workers N] [--queue-capacity N] \
                     [--admission reject|block|shed] \
                     [--quality degrade|full|t1|t2|t3] \
                     [--pending-connections N] [--stream-window N] \
                     [--read-timeout-ms N] [--drain-deadline-ms N]";

/// Parses the command line; `Ok(None)` means the usage was asked for.
fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut args = Args {
        config: ServerConfig::default().with_addr("127.0.0.1:8090"),
        engine_workers: 2,
        queue_capacity: splat_engine::DEFAULT_QUEUE_CAPACITY,
        admission: AdmissionPolicy::RejectWhenFull,
        quality: QualityPolicy::degrade_default(),
    };
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--addr" => args.config.addr = value("--addr")?,
            "--workers" => {
                args.config.workers = parse_number(&value("--workers")?, "--workers")?;
            }
            "--engine-workers" => {
                args.engine_workers =
                    parse_number(&value("--engine-workers")?, "--engine-workers")?;
            }
            "--queue-capacity" => {
                args.queue_capacity =
                    parse_number(&value("--queue-capacity")?, "--queue-capacity")?;
            }
            "--pending-connections" => {
                args.config.pending_connections =
                    parse_number(&value("--pending-connections")?, "--pending-connections")?;
            }
            "--stream-window" => {
                args.config.stream_window =
                    parse_number(&value("--stream-window")?, "--stream-window")?;
            }
            "--read-timeout-ms" => {
                args.config.read_timeout_ms =
                    parse_number(&value("--read-timeout-ms")?, "--read-timeout-ms")?;
            }
            "--drain-deadline-ms" => {
                args.config.drain_deadline_ms =
                    parse_number(&value("--drain-deadline-ms")?, "--drain-deadline-ms")?;
            }
            "--admission" => {
                args.admission = match value("--admission")?.as_str() {
                    "reject" => AdmissionPolicy::RejectWhenFull,
                    "block" => AdmissionPolicy::Block,
                    // The capacity is filled in once every flag is read.
                    "shed" => AdmissionPolicy::ShedLowPriority { capacity: 0 },
                    other => return Err(format!("unknown admission policy `{other}`")),
                };
            }
            "--quality" => {
                let label = value("--quality")?;
                args.quality = match label.as_str() {
                    "degrade" => QualityPolicy::degrade_default(),
                    "full" => QualityPolicy::FullOnly,
                    other => QualityTier::from_label(other)
                        .map(QualityPolicy::Pinned)
                        .ok_or_else(|| format!("unknown quality policy `{other}`"))?,
                };
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    // The shedding policy carries its own capacity; it is the queue's,
    // whichever of `--admission` and `--queue-capacity` came first.
    if let AdmissionPolicy::ShedLowPriority { capacity } = &mut args.admission {
        *capacity = args.queue_capacity;
    }
    Ok(Some(args))
}

fn parse_number<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: invalid value `{text}`"))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    let engine = match Engine::builder()
        .workers(args.engine_workers)
        .queue_capacity(args.queue_capacity)
        .admission(args.admission)
        .quality(args.quality)
        .build()
    {
        Ok(engine) => Arc::new(engine),
        Err(error) => {
            eprintln!("failed to build the engine: {error}");
            return ExitCode::FAILURE;
        }
    };

    let server = match Server::start(engine, args.config) {
        Ok(server) => server,
        Err(error) => {
            eprintln!("failed to start the server: {error}");
            return ExitCode::FAILURE;
        }
    };

    println!("{{\"listening\":\"{}\"}}", server.local_addr());
    // The parent (the `serve_process` test, a deployment's supervisor)
    // parses the line above to find the port; make sure it is not stuck in
    // a pipe buffer.
    let _ = std::io::Write::flush(&mut std::io::stdout());

    server.wait_until_shutdown();
    let (server_stats, engine_stats) = server.shutdown();
    println!(
        "{{\"server\":{},\"engine\":{}}}",
        server_stats.to_json(),
        engine_stats.to_json(),
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(flags: &[&str]) -> Args {
        match parse_args(flags.iter().map(|flag| flag.to_string())) {
            Ok(Some(args)) => args,
            Ok(None) => panic!("{flags:?}: asked for the usage"),
            Err(message) => panic!("{flags:?}: {message}"),
        }
    }

    #[test]
    fn help_is_not_an_error_and_an_unknown_flag_is_one_with_the_usage() {
        for flag in ["--help", "-h"] {
            let asked = parse_args(["--workers", "2", flag].map(String::from).into_iter());
            assert!(matches!(asked, Ok(None)), "{flag}");
        }
        let Err(message) = parse_args(["--wokers".to_string()].into_iter()) else {
            panic!("an unknown flag must fail");
        };
        assert!(message.starts_with("unknown flag `--wokers`"), "{message}");
        assert!(message.ends_with(USAGE), "{message}");
    }

    #[test]
    fn shed_capacity_is_the_queue_capacity_in_either_flag_order() {
        for flags in [
            ["--admission", "shed", "--queue-capacity", "4"],
            ["--queue-capacity", "4", "--admission", "shed"],
        ] {
            let args = parse(&flags);
            assert_eq!(
                args.admission,
                AdmissionPolicy::ShedLowPriority { capacity: 4 },
                "{flags:?}"
            );
            assert_eq!(args.queue_capacity, 4);
        }
        assert_eq!(
            parse(&["--admission", "shed"]).admission,
            AdmissionPolicy::ShedLowPriority {
                capacity: splat_engine::DEFAULT_QUEUE_CAPACITY
            }
        );
    }
}
