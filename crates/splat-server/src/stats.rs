//! Observable server-side counters.
//!
//! [`ServerStats`] is the wire-facing sibling of
//! [`EngineStats`](splat_engine::EngineStats): where the engine counts
//! jobs, the server counts connections, requests and bytes. Both are
//! served together by `GET /stats` so an operator (or the benchmark's
//! reconciliation pass) can check the cross-layer identities without
//! scraping two processes.

use std::sync::atomic::{AtomicU64, Ordering};

splat_types::counters! {
    /// A point-in-time snapshot of the server's counters, taken with
    /// [`Server::stats`](crate::Server::stats).
    ///
    /// Counters are cumulative over the server's lifetime;
    /// `active_connections` is an instantaneous gauge. The routing and
    /// status identities of [`identities`](ServerStats::identities) hold at
    /// every snapshot where no request is mid-dispatch. Connections refused
    /// at the door (`refused_connections`) never became requests and appear
    /// in neither.
    ///
    /// Reconciliation against the engine: single-frame renders flow
    /// `render_requests → Engine submissions`, so at quiescence
    /// `ok + overloaded + not_found + gone` responses on `/render` account
    /// for every `submitted`/`rejected`/miss the engine recorded for that
    /// traffic (pinned exactly in `tests/server_e2e.rs`).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    #[non_exhaustive]
    pub struct ServerStats {
        /// Connections accepted into the bounded connection queue.
        accepted: u64,
        /// Connections turned away at the door with an immediate `503`
        /// because the connection queue was full — backpressure before a
        /// single request byte is parsed.
        refused_connections: u64,
        /// Connections currently being served by a worker.
        active_connections: usize,
        /// Requests successfully parsed from the wire (any route).
        requests: u64,
        /// Requests routed to `POST /scenes`.
        scenes_requests: u64,
        /// Requests routed to `POST /render`.
        render_requests: u64,
        /// Requests routed to `POST /trajectories`.
        trajectory_requests: u64,
        /// Requests routed to `GET /stats`.
        stats_requests: u64,
        /// Requests routed to `GET /healthz`.
        health_requests: u64,
        /// Requests routed to `POST /shutdown`.
        shutdown_requests: u64,
        /// Requests whose method/path matched no route (`404`).
        unrouted_requests: u64,
        /// Responses with a 2xx status.
        ok: u64,
        /// `400` responses: malformed HTTP framing, malformed JSON or scene
        /// bytes, or invalid camera/trajectory parameters.
        bad_request: u64,
        /// `404` responses: unknown routes and `RenderError::UnknownScene`.
        not_found: u64,
        /// `410` responses: `RenderError::Evicted` — the scene existed but
        /// was deflated by the residency policy.
        gone: u64,
        /// `413` responses: declared `Content-Length` above the configured
        /// body limit (the body is never read).
        payload_too_large: u64,
        /// `503` responses: `RenderError::Overloaded` / `ShutDown` mapped
        /// to the wire with `Retry-After`.
        overloaded: u64,
        /// Frames delivered through chunked trajectory streams (refusal
        /// chunks not included).
        frames_streamed: u64,
        /// Request bytes read from the wire (request line, headers, body).
        bytes_in: u64,
        /// Response bytes written to the wire (status line, headers, body,
        /// chunk framing).
        bytes_out: u64,
    }
    /// Lock-free accumulator behind [`ServerStats`]: every worker thread
    /// bumps these atomics as it serves; `snapshot` reads them into the
    /// plain struct. Relaxed ordering is sufficient because the counters
    /// are monotonic tallies, not synchronization — reconciliation tests
    /// quiesce the server before comparing.
    #[derive(Debug, Default)]
    pub(crate) atomic ServerCounters;
}

impl ServerStats {
    /// Sum of the per-endpoint routing counters; equals `requests` at
    /// quiescence.
    pub fn routed(&self) -> u64 {
        self.scenes_requests
            + self.render_requests
            + self.trajectory_requests
            + self.stats_requests
            + self.health_requests
            + self.shutdown_requests
            + self.unrouted_requests
    }

    /// Sum of the per-status response counters; equals `requests` at
    /// quiescence.
    pub fn responded(&self) -> u64 {
        self.ok
            + self.bad_request
            + self.not_found
            + self.gone
            + self.payload_too_large
            + self.overloaded
    }

    /// The bookkeeping identities that hold whenever no request is
    /// mid-dispatch, as `(name, left, right)` with `left == right`: every
    /// parsed request is routed exactly once and answered with exactly
    /// one status.
    pub fn identities(&self) -> [(&'static str, u64, u64); 2] {
        [
            ("requests == routed()", self.requests, self.routed()),
            ("requests == responded()", self.requests, self.responded()),
        ]
    }
}

impl ServerCounters {
    pub(crate) fn add(counter: &AtomicU64, delta: u64) {
        counter.fetch_add(delta, Ordering::Relaxed);
    }

    pub(crate) fn bump(counter: &AtomicU64) {
        Self::add(counter, 1);
    }

    /// Decrements the active-connection gauge (saturating, so a spurious
    /// double-release cannot wrap the gauge).
    pub(crate) fn release_connection(&self) {
        let _ = self
            .active_connections
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Tallies one response by its status code.
    pub(crate) fn record_status(&self, status: u16) {
        match status {
            200..=299 => Self::bump(&self.ok),
            404 => Self::bump(&self.not_found),
            410 => Self::bump(&self.gone),
            413 => Self::bump(&self.payload_too_large),
            503 => Self::bump(&self.overloaded),
            _ => Self::bump(&self.bad_request),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_and_status_identities_reconcile() {
        let stats = ServerStats {
            requests: 9,
            scenes_requests: 1,
            render_requests: 4,
            trajectory_requests: 1,
            stats_requests: 1,
            health_requests: 1,
            shutdown_requests: 0,
            unrouted_requests: 1,
            ok: 6,
            bad_request: 1,
            not_found: 1,
            gone: 0,
            payload_too_large: 0,
            overloaded: 1,
            ..Default::default()
        };
        for (identity, left, right) in stats.identities() {
            assert_eq!(left, right, "{identity}");
        }
        // One more response than requests breaks exactly the status side.
        let drifted = ServerStats { gone: 1, ..stats };
        let failing: Vec<_> = drifted
            .identities()
            .into_iter()
            .filter(|(_, l, r)| l != r)
            .collect();
        assert_eq!(failing, [("requests == responded()", 9, 10)]);
    }

    #[test]
    fn record_status_buckets_by_code() {
        let counters = ServerCounters::default();
        for status in [200, 201, 400, 404, 410, 413, 422, 503] {
            counters.record_status(status);
        }
        let stats = counters.snapshot();
        assert_eq!(stats.ok, 2);
        assert_eq!(stats.bad_request, 2);
        assert_eq!(stats.not_found, 1);
        assert_eq!(stats.gone, 1);
        assert_eq!(stats.payload_too_large, 1);
        assert_eq!(stats.overloaded, 1);
    }

    #[test]
    fn release_connection_saturates_at_zero() {
        let counters = ServerCounters::default();
        counters.release_connection();
        assert_eq!(counters.snapshot().active_connections, 0);
        ServerCounters::bump(&counters.active_connections);
        ServerCounters::bump(&counters.active_connections);
        counters.release_connection();
        assert_eq!(counters.snapshot().active_connections, 1);
    }
}
