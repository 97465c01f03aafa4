//! The listener, connection pool and router.
//!
//! ## Threading model
//!
//! One acceptor thread polls a non-blocking `TcpListener` and pushes
//! accepted sockets into a bounded queue; when the queue is full the
//! connection is refused with an immediate `503` — backpressure at the
//! door, before a single request byte is read. A fixed pool of worker
//! threads pops connections and serves them keep-alive until the peer
//! closes, a request is malformed beyond recovery, or shutdown begins.
//! Shutdown closes the read half of every live connection, so a worker
//! parked on an idle keep-alive socket wakes at once (a response already
//! being written still goes out): teardown is bounded by work in flight,
//! not by the read timeout.
//!
//! ## Backpressure-to-status mapping
//!
//! | engine refusal                  | wire                         |
//! |---------------------------------|------------------------------|
//! | `Overloaded` / `ShutDown`       | `503` + `Retry-After: 1`     |
//! | `UnknownScene`                  | `404`                        |
//! | `Evicted`                       | `410`                        |
//! | `BackendFault`                  | `500`                        |
//! | malformed body / camera         | `400` (typed `Display` text) |
//! | oversized `Content-Length`      | `413` (body never read)      |
//!
//! Trajectory streams additionally bound the per-connection in-flight
//! window ([`ServerConfig::stream_window`]): frames are submitted
//! lazily as chunks drain to the peer, so a slow reader holds at most
//! `window` queue slots instead of pinning a whole trajectory.

#![expect(
    clippy::disallowed_methods,
    reason = "the front door's drain deadline and socket timeouts are wall-clock by nature; rendering stays deterministic"
)]

use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use splat_engine::{Engine, EngineStats, ShutdownMode};
use splat_metrics::digest::fnv1a64_lanes;
use splat_scene::io::decode_scene;
use splat_types::RenderError;

use crate::http::{
    finish_chunks, read_request, status_for_http_error, write_chunk, write_chunked_head,
    write_response, ReadOutcome, Request,
};
use crate::json::parse_json;
use crate::stats::{ServerCounters, ServerStats};
use crate::wire::{
    encode_frame, encode_frame_chunk, encode_refusal_chunk, parse_render_request,
    parse_trajectory_request, RequestError,
};

/// Configuration for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port (the bound
    /// address is available from [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads serving connections (clamped to at least 1).
    pub workers: usize,
    /// Connections queued between acceptor and workers before the
    /// door refuses with `503` (clamped to at least 1).
    pub pending_connections: usize,
    /// Largest accepted request body, in bytes; larger declared
    /// `Content-Length`s are refused with `413` without reading.
    pub(crate) max_body_bytes: usize,
    /// Per-connection in-flight window for trajectory streams
    /// (clamped to at least 1).
    pub stream_window: usize,
    /// Socket read timeout; a peer stalling longer mid-request gets a
    /// `400`, and an idle keep-alive connection is closed.
    pub read_timeout_ms: u64,
    /// How long [`Server::shutdown`] waits for the engine to drain
    /// admitted jobs before aborting the remainder.
    pub drain_deadline_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            pending_connections: 64,
            max_body_bytes: 64 << 20,
            stream_window: 4,
            read_timeout_ms: 5_000,
            drain_deadline_ms: 5_000,
        }
    }
}

impl ServerConfig {
    /// Sets the bind address.
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets the worker-thread count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the request-body limit in bytes.
    pub fn with_max_body_bytes(mut self, bytes: usize) -> Self {
        self.max_body_bytes = bytes;
        self
    }

    /// Sets the socket read timeout in milliseconds.
    pub fn with_read_timeout_ms(mut self, millis: u64) -> Self {
        self.read_timeout_ms = millis;
        self
    }
}

struct ServerShared {
    engine: Arc<Engine>,
    counters: ServerCounters,
    pending: Mutex<std::collections::VecDeque<TcpStream>>,
    pending_ready: Condvar,
    stop: AtomicBool,
    /// One slot per worker: a clone of the connection it is serving, kept
    /// so shutdown can close its read half and unpark the worker.
    live: Mutex<Vec<Option<TcpStream>>>,
    max_body_bytes: usize,
    stream_window: usize,
    read_timeout: Duration,
}

impl ServerShared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Flips the stop flag, wakes the workers waiting for a connection and
    /// unparks those blocked reading one. Idempotent.
    fn begin_stop(&self) {
        self.stop.store(true, Ordering::Release);
        self.pending_ready.notify_all();
        if let Ok(live) = self.live.lock() {
            for stream in live.iter().flatten() {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
    }

    /// Records (or, with `None`, forgets) the connection `worker` serves.
    /// The stop flag is checked under the same lock [`begin_stop`] walks
    /// the slots with, so a connection picked up while shutdown begins is
    /// closed by one side or the other — never left to sit out its read
    /// timeout.
    ///
    /// [`begin_stop`]: Self::begin_stop
    fn set_live(&self, worker: usize, stream: Option<TcpStream>) {
        let Ok(mut live) = self.live.lock() else {
            return;
        };
        if self.stopping() {
            if let Some(stream) = &stream {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
        if let Some(slot) = live.get_mut(worker) {
            *slot = stream;
        }
    }
}

/// The running front door: a bound listener, an acceptor thread and a
/// worker pool fronting a shared [`Engine`].
///
/// Dropping the server (or calling [`shutdown`](Self::shutdown))
/// stops accepting, drains queued connections, and asks the engine to
/// drain via [`Engine::begin_shutdown`] — the sanctioned
/// shared-ownership path, since the server holds the engine in an
/// `Arc` and cannot call the consuming `Engine::shutdown`.
pub struct Server {
    shared: Arc<ServerShared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    addr: SocketAddr,
    drain_deadline: Duration,
}

impl Server {
    /// Binds the listener and starts the acceptor and worker pool.
    ///
    /// # Errors
    ///
    /// Returns [`RenderError::InvalidConfiguration`] when the address
    /// cannot be bound or threads cannot be spawned.
    pub fn start(engine: Arc<Engine>, config: ServerConfig) -> Result<Self, RenderError> {
        let listener =
            TcpListener::bind(&config.addr).map_err(|error| RenderError::InvalidConfiguration {
                reason: format!("failed to bind {}: {error}", config.addr),
            })?;
        listener
            .set_nonblocking(true)
            .map_err(|error| RenderError::InvalidConfiguration {
                reason: format!("failed to set the listener non-blocking: {error}"),
            })?;
        let addr = listener
            .local_addr()
            .map_err(|error| RenderError::InvalidConfiguration {
                reason: format!("failed to read the bound address: {error}"),
            })?;

        let worker_count = config.workers.max(1);
        let shared = Arc::new(ServerShared {
            engine,
            counters: ServerCounters::default(),
            pending: Mutex::new(std::collections::VecDeque::new()),
            pending_ready: Condvar::new(),
            stop: AtomicBool::new(false),
            live: Mutex::new((0..worker_count).map(|_| None).collect()),
            max_body_bytes: config.max_body_bytes,
            stream_window: config.stream_window.max(1),
            read_timeout: Duration::from_millis(config.read_timeout_ms.max(1)),
        });

        let pending_limit = config.pending_connections.max(1);
        let acceptor_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("splat-serve-acceptor".to_string())
            .spawn(move || accept_loop(&acceptor_shared, &listener, pending_limit))
            .map_err(|error| RenderError::InvalidConfiguration {
                reason: format!("failed to spawn the acceptor thread: {error}"),
            })?;

        let mut workers = Vec::new();
        for index in 0..worker_count {
            let worker_shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("splat-serve-worker-{index}"))
                .spawn(move || worker_loop(&worker_shared, index))
                .map_err(|error| RenderError::InvalidConfiguration {
                    reason: format!("failed to spawn worker {index}: {error}"),
                })?;
            workers.push(handle);
        }

        Ok(Self {
            shared,
            acceptor: Some(acceptor),
            workers,
            addr,
            drain_deadline: Duration::from_millis(config.drain_deadline_ms),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine behind the front door.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.shared.engine
    }

    /// A point-in-time snapshot of the server counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.counters.snapshot()
    }

    /// Signals shutdown without blocking: the acceptor stops taking
    /// new connections, workers finish the request they are serving,
    /// idle keep-alive connections are closed, and `POST /shutdown`
    /// responses flip to refusals. Idempotent; also triggered remotely
    /// by `POST /shutdown`.
    pub(crate) fn request_shutdown(&self) {
        self.shared.begin_stop();
    }

    /// Whether shutdown has been requested (locally or via
    /// `POST /shutdown`).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.stopping()
    }

    /// Blocks until shutdown is requested, polling the stop flag (used
    /// by the `splat-serve` binary between startup and teardown).
    pub fn wait_until_shutdown(&self) {
        while !self.shared.stopping() {
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Graceful teardown: stops the acceptor, joins the workers (each
    /// finishes its current request), then drains the engine via
    /// [`Engine::begin_shutdown`] with the configured deadline —
    /// aborting the remainder if the deadline passes. Returns the
    /// final server and engine snapshots for reconciliation.
    pub fn shutdown(mut self) -> (ServerStats, EngineStats) {
        self.join_front_door();
        let deadline = self.drain_deadline;
        let shared = Arc::clone(&self.shared);
        shared.engine.begin_shutdown(ShutdownMode::Drain);
        let started = Instant::now();
        while shared.engine.stats().in_flight() > 0 {
            if started.elapsed() >= deadline {
                shared.engine.begin_shutdown(ShutdownMode::Abort);
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        (shared.counters.snapshot(), shared.engine.stats())
    }

    fn join_front_door(&mut self) {
        self.request_shutdown();
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.join_front_door();
    }
}

fn accept_loop(shared: &ServerShared, listener: &TcpListener, pending_limit: usize) {
    while !shared.stopping() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                let admitted = {
                    let Ok(mut pending) = shared.pending.lock() else {
                        return;
                    };
                    if pending.len() < pending_limit {
                        pending.push_back(stream);
                        true
                    } else {
                        drop(pending);
                        refuse_connection(shared, stream);
                        false
                    }
                };
                if admitted {
                    ServerCounters::bump(&shared.counters.accepted);
                    shared.pending_ready.notify_one();
                }
            }
            Err(error) if error.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    shared.pending_ready.notify_all();
}

/// Writes the at-the-door `503` for a connection the queue cannot hold.
fn refuse_connection(shared: &ServerShared, mut stream: TcpStream) {
    ServerCounters::bump(&shared.counters.refused_connections);
    let retry = [("Retry-After", "1".to_string())];
    if let Ok(written) = write_response(
        &mut stream,
        503,
        &retry,
        "application/json",
        b"{\"error\":\"connection queue full\"}",
    ) {
        ServerCounters::add(&shared.counters.bytes_out, written);
    }
}

fn worker_loop(shared: &ServerShared, index: usize) {
    loop {
        let stream = {
            let Ok(mut pending) = shared.pending.lock() else {
                return;
            };
            loop {
                if let Some(stream) = pending.pop_front() {
                    break stream;
                }
                if shared.stopping() {
                    return;
                }
                let Ok(next) = shared.pending_ready.wait(pending) else {
                    return;
                };
                pending = next;
            }
        };
        ServerCounters::bump(&shared.counters.active_connections);
        // Without a clone (descriptor exhaustion) the connection is still
        // served; only its wake-up at shutdown falls back to the timeout.
        shared.set_live(index, stream.try_clone().ok());
        let _ = serve_connection(shared, stream);
        shared.set_live(index, None);
        shared.counters.release_connection();
    }
}

fn serve_connection(shared: &ServerShared, stream: TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(shared.read_timeout))?;
    let mut reader = BufReader::new(stream);
    loop {
        match read_request(&mut reader, shared.max_body_bytes)? {
            ReadOutcome::Closed => return Ok(()),
            ReadOutcome::Malformed(error) => {
                // The refusal is itself a served response: count it as a
                // parsed-but-rejected request so the status identity holds.
                ServerCounters::bump(&shared.counters.requests);
                ServerCounters::bump(&shared.counters.unrouted_requests);
                let status = status_for_http_error(&error);
                shared.counters.record_status(status);
                let body = format!("{{\"error\":\"{error}\"}}");
                let written = write_response(
                    reader.get_mut(),
                    status,
                    &[],
                    "application/json",
                    body.as_bytes(),
                )?;
                ServerCounters::add(&shared.counters.bytes_out, written);
                // Framing is unreliable after a malformed request; close.
                return Ok(());
            }
            ReadOutcome::Request {
                request,
                head_bytes,
            } => {
                ServerCounters::bump(&shared.counters.requests);
                ServerCounters::add(
                    &shared.counters.bytes_in,
                    head_bytes as u64 + request.body.len() as u64,
                );
                handle_request(shared, reader.get_mut(), &request)?;
                if shared.stopping() {
                    return Ok(());
                }
            }
        }
    }
}

/// Maps an engine refusal to its wire status. There is no wildcard arm: a
/// new `RenderError` variant does not compile until it is given a status.
fn status_for_render_error(error: &RenderError) -> u16 {
    match error {
        RenderError::Overloaded { .. } | RenderError::ShutDown => 503,
        RenderError::UnknownScene { .. } => 404,
        RenderError::Evicted { .. } => 410,
        RenderError::BackendFault { .. } => 500,
        RenderError::DegenerateCamera { .. }
        | RenderError::InvalidResolution { .. }
        | RenderError::InvalidIntrinsics { .. }
        | RenderError::EmptyScene
        | RenderError::InvalidTileSize { .. }
        | RenderError::InvalidConfiguration { .. }
        | RenderError::Cancelled => 400,
    }
}

fn error_body(message: &str) -> Vec<u8> {
    let escaped: String = message
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            '\n' => vec!['\\', 'n'],
            c if (c as u32) < 0x20 => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("{{\"error\":\"{escaped}\"}}").into_bytes()
}

fn retry_after_headers(status: u16) -> Vec<(&'static str, String)> {
    if status == 503 {
        vec![("Retry-After", "1".to_string())]
    } else {
        Vec::new()
    }
}

fn respond(
    shared: &ServerShared,
    stream: &mut TcpStream,
    status: u16,
    extra_headers: &[(&str, String)],
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    shared.counters.record_status(status);
    let written = write_response(stream, status, extra_headers, content_type, body)?;
    ServerCounters::add(&shared.counters.bytes_out, written);
    Ok(())
}

fn respond_render_error(
    shared: &ServerShared,
    stream: &mut TcpStream,
    error: &RenderError,
) -> io::Result<()> {
    let status = status_for_render_error(error);
    let headers = retry_after_headers(status);
    respond(
        shared,
        stream,
        status,
        &headers,
        "application/json",
        &error_body(&error.to_string()),
    )
}

fn handle_request(
    shared: &ServerShared,
    stream: &mut TcpStream,
    request: &Request,
) -> io::Result<()> {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            ServerCounters::bump(&shared.counters.health_requests);
            respond(shared, stream, 200, &[], "text/plain", b"ok\n")
        }
        ("GET", "/stats") => {
            ServerCounters::bump(&shared.counters.stats_requests);
            let engine_json = shared.engine.stats().to_json();
            // Count this response before snapshotting so the served
            // JSON satisfies the status identity for its own request.
            shared.counters.record_status(200);
            let server_json = shared.counters.snapshot().to_json();
            let body = format!("{{\"server\":{server_json},\"engine\":{engine_json}}}");
            let written = write_response(stream, 200, &[], "application/json", body.as_bytes())?;
            ServerCounters::add(&shared.counters.bytes_out, written);
            Ok(())
        }
        ("POST", "/scenes") => {
            ServerCounters::bump(&shared.counters.scenes_requests);
            handle_scene_upload(shared, stream, request)
        }
        ("POST", "/render") => {
            ServerCounters::bump(&shared.counters.render_requests);
            handle_render(shared, stream, request)
        }
        ("POST", "/trajectories") => {
            ServerCounters::bump(&shared.counters.trajectory_requests);
            handle_trajectory(shared, stream, request)
        }
        ("POST", "/shutdown") => {
            ServerCounters::bump(&shared.counters.shutdown_requests);
            shared.begin_stop();
            respond(
                shared,
                stream,
                200,
                &[],
                "application/json",
                b"{\"shutting_down\":true}",
            )
        }
        _ => {
            ServerCounters::bump(&shared.counters.unrouted_requests);
            respond(
                shared,
                stream,
                404,
                &[],
                "application/json",
                b"{\"error\":\"no such endpoint\"}",
            )
        }
    }
}

fn handle_scene_upload(
    shared: &ServerShared,
    stream: &mut TcpStream,
    request: &Request,
) -> io::Result<()> {
    let scene = match decode_scene(&request.body) {
        Ok(scene) => scene,
        Err(error) => {
            return respond(
                shared,
                stream,
                400,
                &[],
                "application/json",
                &error_body(&error.to_string()),
            );
        }
    };
    let name = scene.name().to_string();
    let splats = scene.len();
    match shared.engine.register_scene(Arc::new(scene)) {
        Ok(id) => {
            let body = format!(
                "{{\"scene_id\":{},\"name\":\"{name}\",\"splats\":{splats}}}",
                id.raw(),
            );
            respond(
                shared,
                stream,
                201,
                &[],
                "application/json",
                body.as_bytes(),
            )
        }
        Err(error) => respond_render_error(shared, stream, &error),
    }
}

fn parse_body_json(request: &Request) -> Result<crate::json::JsonValue, String> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| "request body is not valid UTF-8".to_string())?;
    parse_json(text).map_err(|error| error.to_string())
}

fn status_for_request_error(error: &RequestError) -> u16 {
    match error {
        RequestError::Render(render) => status_for_render_error(render),
        _ => 400,
    }
}

fn handle_render(
    shared: &ServerShared,
    stream: &mut TcpStream,
    request: &Request,
) -> io::Result<()> {
    let body = match parse_body_json(request) {
        Ok(body) => body,
        Err(message) => {
            return respond(
                shared,
                stream,
                400,
                &[],
                "application/json",
                &error_body(&message),
            );
        }
    };
    let wire_request = match parse_render_request(&body) {
        Ok(parsed) => parsed,
        Err(error) => {
            let status = status_for_request_error(&error);
            let headers = retry_after_headers(status);
            return respond(
                shared,
                stream,
                status,
                &headers,
                "application/json",
                &error_body(&error.to_string()),
            );
        }
    };
    let handle = match shared.engine.submit(wire_request.into_submit()) {
        Ok(handle) => handle,
        Err(error) => return respond_render_error(shared, stream, &error),
    };
    let tier = handle.tier();
    match handle.wait() {
        Ok(output) => {
            let body = encode_frame(&output.image);
            let headers = [
                ("X-Splat-Digest", format!("{:016x}", fnv1a64_lanes(&body))),
                ("X-Splat-Quality", tier.label().to_string()),
            ];
            respond(
                shared,
                stream,
                200,
                &headers,
                "application/octet-stream",
                &body,
            )
        }
        Err(error) => respond_render_error(shared, stream, &error),
    }
}

fn handle_trajectory(
    shared: &ServerShared,
    stream: &mut TcpStream,
    request: &Request,
) -> io::Result<()> {
    let body = match parse_body_json(request) {
        Ok(body) => body,
        Err(message) => {
            return respond(
                shared,
                stream,
                400,
                &[],
                "application/json",
                &error_body(&message),
            );
        }
    };
    let wire_request = match parse_trajectory_request(&body) {
        Ok(parsed) => parsed,
        Err(error) => {
            let status = status_for_request_error(&error);
            let headers = retry_after_headers(status);
            return respond(
                shared,
                stream,
                status,
                &headers,
                "application/json",
                &error_body(&error.to_string()),
            );
        }
    };
    let mut frames = match shared.engine.stream_trajectory(
        wire_request.scene_id,
        &wire_request.trajectory,
        wire_request.priority,
        shared.stream_window,
    ) {
        Ok(stream) => stream,
        Err(error) => return respond_render_error(shared, stream, &error),
    };

    shared.counters.record_status(200);
    let headers = [("X-Splat-Frames", frames.len().to_string())];
    // Counted as each write returns, so a client that disconnects
    // mid-stream still leaves the bytes it was sent in `bytes_out`.
    let sent = |bytes: u64| ServerCounters::add(&shared.counters.bytes_out, bytes);
    sent(write_chunked_head(
        stream,
        200,
        &headers,
        "application/octet-stream",
    )?);
    while let Some((tier, result)) = frames.next_frame_tiered() {
        let chunk = match (tier, result) {
            (Some(tier), Ok(output)) => {
                ServerCounters::bump(&shared.counters.frames_streamed);
                encode_frame_chunk(tier, &output.image)
            }
            (_, Ok(output)) => {
                // A served frame always carries its admission tier; keep
                // the stream well-formed even if that invariant slips.
                ServerCounters::bump(&shared.counters.frames_streamed);
                encode_frame_chunk(splat_engine::QualityTier::Full, &output.image)
            }
            (_, Err(error)) => encode_refusal_chunk(&error.to_string()),
        };
        sent(write_chunk(stream, &chunk)?);
        if shared.stopping() {
            // Shutdown mid-stream: stop submitting new frames; the
            // truncated chunk stream tells the peer the transfer died.
            break;
        }
    }
    sent(finish_chunks(stream)?);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use splat_types::SceneId;

    #[test]
    fn render_errors_map_to_the_documented_statuses() {
        let id = SceneId::from_raw(1);
        let reason = String::new;
        let table = [
            (RenderError::Overloaded { capacity: 1 }, 503),
            (RenderError::ShutDown, 503),
            (RenderError::UnknownScene { id }, 404),
            (RenderError::Evicted { id }, 410),
            (RenderError::BackendFault { reason: reason() }, 500),
            (RenderError::DegenerateCamera { reason: reason() }, 400),
            (
                RenderError::InvalidResolution {
                    width: 0,
                    height: 0,
                },
                400,
            ),
            (RenderError::InvalidIntrinsics { reason: reason() }, 400),
            (RenderError::EmptyScene, 400),
            (RenderError::InvalidTileSize { tile_size: 0 }, 400),
            (RenderError::InvalidConfiguration { reason: reason() }, 400),
            (RenderError::Cancelled, 400),
        ];
        for (error, status) in table {
            assert_eq!(status_for_render_error(&error), status, "{error:?}");
            // Only the retryable refusals advertise a retry.
            assert_eq!(
                !retry_after_headers(status).is_empty(),
                status == 503,
                "{error:?}"
            );
        }
    }
}
