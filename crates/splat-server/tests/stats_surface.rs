//! Pins the `ServerStats` observability surface: every counter is
//! carried by `to_json` and `Display`, the JSON bytes `GET /stats`
//! clients parse are fixed, and the declared routing and status
//! identities reconcile.

use splat_server::ServerStats;

/// Field *i* holds the *i*-th prime, so every value is distinct.
fn sample() -> ServerStats {
    const PRIMES: [u64; 20] = [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
    ];
    ServerStats::from(PRIMES)
}

#[test]
fn json_covers_every_counter() {
    let json = sample().to_json();
    for (name, value) in ServerStats::FIELDS.iter().zip(sample().values()) {
        assert!(
            json.contains(&format!("\"{name}\":{value}")),
            "missing {name} in {json}"
        );
    }
}

#[test]
fn display_covers_every_counter() {
    let text = sample().to_string();
    for (name, value) in ServerStats::FIELDS.iter().zip(sample().values()) {
        assert!(
            text.contains(&format!("{value} {name}")),
            "missing `{name}` in `{text}`"
        );
    }
}

#[test]
fn json_bytes_are_pinned() {
    assert_eq!(
        sample().to_json(),
        "{\"accepted\":2,\"refused_connections\":3,\"active_connections\":5,\
         \"requests\":7,\"scenes_requests\":11,\"render_requests\":13,\
         \"trajectory_requests\":17,\"stats_requests\":19,\"health_requests\":23,\
         \"shutdown_requests\":29,\"unrouted_requests\":31,\
         \"ok\":37,\"bad_request\":41,\"not_found\":43,\"gone\":47,\
         \"payload_too_large\":53,\"overloaded\":59,\
         \"frames_streamed\":61,\"bytes_in\":67,\"bytes_out\":71}"
    );
}

#[test]
fn routing_and_status_identities_reconcile() {
    // `ServerStats` is `#[non_exhaustive]`, so build by mutation: nine
    // requests, each routed and answered exactly once.
    let mut balanced = ServerStats::default();
    balanced.requests = 9;
    (balanced.scenes_requests, balanced.render_requests) = (1, 5);
    (balanced.trajectory_requests, balanced.stats_requests) = (1, 1);
    balanced.unrouted_requests = 1;
    (balanced.ok, balanced.bad_request, balanced.not_found) = (6, 1, 1);
    balanced.overloaded = 1;
    for (identity, left, right) in balanced.identities() {
        assert_eq!(left, right, "{identity}");
    }
    assert_eq!(balanced.routed(), 9);
    assert_eq!(balanced.responded(), 9);
    // The all-primes sample is not a balanced book, and both sides say so.
    assert!(sample().identities().iter().all(|(_, l, r)| l != r));
}
