//! `splat-server`: the dependency-free network front door.
//!
//! A std-only HTTP/1.1 server over [`std::net::TcpListener`] fronting a
//! shared [`Engine`](splat_engine::Engine), so the in-process serving
//! stack — async submit, the scene registry, the quality ladder — is
//! reachable over a socket. Everything is deterministic and typed:
//! engine refusals map onto wire statuses, frames travel in a digest-
//! stable binary format, and [`ServerStats`] reconciles against
//! [`EngineStats`](splat_engine::EngineStats).
//!
//! ## Endpoints
//!
//! | endpoint              | body                  | response                           |
//! |-----------------------|-----------------------|------------------------------------|
//! | `POST /scenes`        | binary `.splat` scene | `201` `{"scene_id": …}`            |
//! | `POST /render`        | JSON camera request   | `200` binary frame + digest header |
//! | `POST /trajectories`  | JSON orbit request    | `200` chunked frame stream         |
//! | `GET /stats`          | —                     | `200` server + engine counters     |
//! | `GET /healthz`        | —                     | `200` liveness probe               |
//! | `POST /shutdown`      | —                     | `200`, then graceful drain         |
//!
//! ## Backpressure
//!
//! Admission control composes across three layers:
//!
//! 1. **The door**: a bounded connection queue between acceptor and
//!    workers; a full queue refuses with an immediate `503` before any
//!    request byte is read.
//! 2. **The engine**: `AdmissionPolicy`/`QualityPolicy` decide
//!    shed-vs-degrade per job; refusals surface as `503 Retry-After`
//!    (`Overloaded`/`ShutDown`), `404` (`UnknownScene`), `410`
//!    (`Evicted`) or `400` (validation), never as hung sockets; a fault
//!    inside the renderer (`BackendFault`) is a `500`.
//! 3. **The stream**: trajectory responses submit frames lazily through
//!    a bounded in-flight window, so a slow reader holds at most
//!    `stream_window` queue slots.
//!
//! ## Quick start
//!
//! ```no_run
//! use std::sync::Arc;
//! use splat_engine::Engine;
//! use splat_server::{Server, ServerConfig};
//!
//! # fn main() -> Result<(), splat_types::RenderError> {
//! let engine = Arc::new(Engine::builder().workers(2).build()?);
//! let server = Server::start(engine, ServerConfig::default())?;
//! println!("listening on {}", server.local_addr());
//! server.wait_until_shutdown();
//! let (server_stats, engine_stats) = server.shutdown();
//! assert_eq!(server_stats.routed(), server_stats.requests);
//! drop(engine_stats);
//! # Ok(())
//! # }
//! ```

// Library code returns typed errors and stays deterministic (`clippy.toml`).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

mod client;
mod http;
mod json;
mod server;
mod stats;
pub mod wire;

pub use client::{one_shot, Connection};
pub use json::{parse_json, JsonValue};
pub use server::{Server, ServerConfig};
pub use stats::ServerStats;
pub use wire::{decode_frame, decode_frame_chunk, encode_frame, frame_digest, FrameChunk};
