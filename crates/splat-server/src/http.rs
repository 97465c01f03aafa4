//! Minimal HTTP/1.1 framing: request parsing and response writing.
//!
//! Only what the front door needs, implemented over `std::io` so the
//! workspace stays dependency-free. Requests are framed by
//! `Content-Length` (chunked *request* bodies are rejected); responses
//! are either `Content-Length`-framed or chunked (trajectory streams).
//! Every parse failure is a typed [`HttpError`] whose `Display` text
//! becomes the 400 body, and every writer returns the exact byte count
//! it put on the wire so [`ServerStats::bytes_out`] stays truthful.
//!
//! [`ServerStats::bytes_out`]: crate::ServerStats::bytes_out

use std::io::{self, BufRead, Write};

/// Upper bound on the request line plus all header lines, in bytes.
pub(crate) const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Upper bound on the number of request headers.
pub(crate) const MAX_HEADERS: usize = 64;

/// A malformed or over-limit request. `Display` is wire-facing: it is
/// returned verbatim as the 400/413 response body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HttpError {
    /// The request line was not `METHOD PATH HTTP/1.x`.
    BadRequestLine,
    /// A header line had no `:` separator.
    BadHeader,
    /// More than [`MAX_HEADERS`] header lines.
    TooManyHeaders,
    /// Request line plus headers exceeded [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// `Content-Length` was present but not a decimal integer.
    BadContentLength,
    /// Declared `Content-Length` exceeds the configured body limit.
    BodyTooLarge {
        /// The limit that was exceeded, in bytes.
        limit: usize,
    },
    /// The connection ended (or timed out) before the declared body
    /// arrived.
    TruncatedBody,
    /// A `Transfer-Encoding` request body (the server only accepts
    /// `Content-Length` framing).
    UnsupportedTransferEncoding,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequestLine => write!(f, "malformed request line"),
            HttpError::BadHeader => write!(f, "malformed header line"),
            HttpError::TooManyHeaders => write!(f, "too many request headers"),
            HttpError::HeadTooLarge => write!(f, "request head exceeds {MAX_HEAD_BYTES} bytes"),
            HttpError::BadContentLength => write!(f, "invalid Content-Length header"),
            HttpError::BodyTooLarge { limit } => {
                write!(f, "request body exceeds the {limit}-byte limit")
            }
            HttpError::TruncatedBody => {
                write!(f, "request body ended before the declared Content-Length")
            }
            HttpError::UnsupportedTransferEncoding => {
                write!(f, "request bodies must use Content-Length framing")
            }
        }
    }
}

impl std::error::Error for HttpError {}

/// HTTP status code for an [`HttpError`] (413 for over-limit bodies,
/// 400 for everything else).
pub(crate) fn status_for_http_error(error: &HttpError) -> u16 {
    match error {
        HttpError::BodyTooLarge { .. } => 413,
        _ => 400,
    }
}

/// One parsed request. Header names are lowercased at parse time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Request {
    /// Request method, uppercase as sent (`GET`, `POST`, ...).
    pub(crate) method: String,
    /// Request target path, e.g. `/render` (query strings are kept
    /// verbatim; the router matches the full target).
    pub(crate) path: String,
    /// `(lowercased-name, value)` pairs in wire order.
    pub(crate) headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub(crate) body: Vec<u8>,
}

impl Request {
    /// First value of the named header (name compared lowercase).
    pub(crate) fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(key, _)| key == name)
            .map(|(_, value)| value.as_str())
    }
}

/// Outcome of reading one request off a keep-alive connection.
#[derive(Debug)]
pub(crate) enum ReadOutcome {
    /// A complete request plus the number of head bytes consumed
    /// (request line and headers; add `request.body.len()` for the
    /// full wire size).
    Request {
        /// The parsed request.
        request: Request,
        /// Bytes consumed by the request line and headers.
        head_bytes: usize,
    },
    /// The peer closed (or went idle past the read timeout) before
    /// sending a request — the normal end of a keep-alive connection.
    Closed,
    /// The peer sent bytes that do not frame a request.
    Malformed(HttpError),
}

/// Reads one `\r\n`- (or `\n`-) terminated line, stripped of the
/// terminator. `Ok(None)` means EOF before any byte.
fn read_line(
    reader: &mut impl BufRead,
    budget: &mut usize,
) -> io::Result<Result<Option<String>, HttpError>> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(Ok(None));
                }
                return Ok(Err(HttpError::BadRequestLine));
            }
            Ok(_) => {
                if *budget == 0 {
                    return Ok(Err(HttpError::HeadTooLarge));
                }
                *budget -= 1;
                let value = byte.first().copied().unwrap_or_default();
                if value == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    let text = String::from_utf8(line).map_err(|_| HttpError::BadRequestLine);
                    return Ok(text.map(Some));
                }
                line.push(value);
            }
            Err(error) => return Err(error),
        }
    }
}

/// Reads one request. Socket-level errors surface as `Err(io::Error)`
/// only when they are not attributable to the peer: timeouts and EOF
/// mid-request map to [`ReadOutcome::Malformed`] /
/// [`ReadOutcome::Closed`] so a slow or rude client degrades to a 400,
/// not a worker failure.
pub(crate) fn read_request(reader: &mut impl BufRead, max_body: usize) -> io::Result<ReadOutcome> {
    let mut budget = MAX_HEAD_BYTES;

    let request_line = match read_line(reader, &mut budget) {
        Ok(Ok(None)) => return Ok(ReadOutcome::Closed),
        Ok(Ok(Some(line))) => line,
        Ok(Err(error)) => return Ok(ReadOutcome::Malformed(error)),
        Err(error) if is_peer_error(&error) => return Ok(ReadOutcome::Closed),
        Err(error) => return Err(error),
    };

    let mut parts = request_line.split_ascii_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(method), Some(path), Some(version), None) => (method, path, version),
        _ => return Ok(ReadOutcome::Malformed(HttpError::BadRequestLine)),
    };
    if !version.starts_with("HTTP/1.") {
        return Ok(ReadOutcome::Malformed(HttpError::BadRequestLine));
    }

    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let line = match read_line(reader, &mut budget) {
            Ok(Ok(Some(line))) => line,
            Ok(Ok(None)) => return Ok(ReadOutcome::Malformed(HttpError::BadRequestLine)),
            Ok(Err(error)) => return Ok(ReadOutcome::Malformed(error)),
            Err(error) if is_peer_error(&error) => {
                return Ok(ReadOutcome::Malformed(HttpError::TruncatedBody))
            }
            Err(error) => return Err(error),
        };
        if line.is_empty() {
            break;
        }
        if headers.len() == MAX_HEADERS {
            return Ok(ReadOutcome::Malformed(HttpError::TooManyHeaders));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Ok(ReadOutcome::Malformed(HttpError::BadHeader));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let head_bytes = MAX_HEAD_BYTES - budget;

    let mut request = Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body: Vec::new(),
    };

    if request.header("transfer-encoding").is_some() {
        return Ok(ReadOutcome::Malformed(
            HttpError::UnsupportedTransferEncoding,
        ));
    }
    let content_length = match request.header("content-length") {
        None => 0,
        Some(text) => match text.parse::<usize>() {
            Ok(length) => length,
            Err(_) => return Ok(ReadOutcome::Malformed(HttpError::BadContentLength)),
        },
    };
    if content_length > max_body {
        // Do not read the body: the refusal must not cost the declared
        // bytes. The connection is closed after the 413 response.
        return Ok(ReadOutcome::Malformed(HttpError::BodyTooLarge {
            limit: max_body,
        }));
    }
    if content_length > 0 {
        let mut body = vec![0u8; content_length];
        match reader.read_exact(&mut body) {
            Ok(()) => request.body = body,
            Err(error) if is_peer_error(&error) => {
                return Ok(ReadOutcome::Malformed(HttpError::TruncatedBody))
            }
            Err(error) => return Err(error),
        }
    }

    Ok(ReadOutcome::Request {
        request,
        head_bytes,
    })
}

/// Errors caused by the peer's behavior (disconnect, stall past the
/// read timeout) rather than by the server.
fn is_peer_error(error: &io::Error) -> bool {
    matches!(
        error.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
    )
}

/// Reason phrase for the status codes the server emits.
pub(crate) fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        410 => "Gone",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete `Content-Length`-framed response; returns the
/// bytes put on the wire.
pub(crate) fn write_response(
    stream: &mut impl Write,
    status: u16,
    extra_headers: &[(&str, String)],
    content_type: &str,
    body: &[u8],
) -> io::Result<u64> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        reason_phrase(status),
        body.len(),
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;
    Ok(head.len() as u64 + body.len() as u64)
}

/// Writes the head of a chunked response; the caller then emits
/// [`write_chunk`]s and a final [`finish_chunks`].
pub(crate) fn write_chunked_head(
    stream: &mut impl Write,
    status: u16,
    extra_headers: &[(&str, String)],
    content_type: &str,
) -> io::Result<u64> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\n",
        reason_phrase(status),
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.flush()?;
    Ok(head.len() as u64)
}

/// Writes one non-empty chunk; returns the bytes put on the wire
/// (framing included). Empty payloads are skipped (an empty chunk
/// would terminate the stream).
pub(crate) fn write_chunk(stream: &mut impl Write, data: &[u8]) -> io::Result<u64> {
    if data.is_empty() {
        return Ok(0);
    }
    let frame = format!("{:x}\r\n", data.len());
    stream.write_all(frame.as_bytes())?;
    stream.write_all(data)?;
    stream.write_all(b"\r\n")?;
    stream.flush()?;
    Ok(frame.len() as u64 + data.len() as u64 + 2)
}

/// Terminates a chunked response; returns the bytes put on the wire.
pub(crate) fn finish_chunks(stream: &mut impl Write) -> io::Result<u64> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()?;
    Ok(5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8], max_body: usize) -> ReadOutcome {
        let mut reader = BufReader::new(bytes);
        read_request(&mut reader, max_body).expect("no io error on in-memory reader")
    }

    #[test]
    fn parses_a_request_with_headers_and_body() {
        let wire = b"POST /render HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        match parse(wire, 1024) {
            ReadOutcome::Request {
                request,
                head_bytes,
            } => {
                assert_eq!(request.method, "POST");
                assert_eq!(request.path, "/render");
                assert_eq!(request.header("host"), Some("x"));
                assert_eq!(request.header("content-length"), Some("4"));
                assert_eq!(request.body, b"abcd");
                assert_eq!(head_bytes + request.body.len(), wire.len());
            }
            other => panic!("expected request, got {other:?}"),
        }
    }

    #[test]
    fn keep_alive_eof_reads_as_closed() {
        assert!(matches!(parse(b"", 1024), ReadOutcome::Closed));
    }

    #[test]
    fn malformed_frames_map_to_typed_errors() {
        assert!(matches!(
            parse(b"GET\r\n\r\n", 1024),
            ReadOutcome::Malformed(HttpError::BadRequestLine)
        ));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n", 1024),
            ReadOutcome::Malformed(HttpError::BadHeader)
        ));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nContent-Length: zero\r\n\r\n", 1024),
            ReadOutcome::Malformed(HttpError::BadContentLength)
        ));
        assert!(matches!(
            parse(
                b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                1024
            ),
            ReadOutcome::Malformed(HttpError::UnsupportedTransferEncoding)
        ));
    }

    #[test]
    fn oversized_content_length_is_refused_without_reading_the_body() {
        // A body of exactly the limit is read.
        let mut exact = Vec::from(&b"POST /scenes HTTP/1.1\r\nContent-Length: 64\r\n\r\n"[..]);
        exact.resize(exact.len() + 64, b'x');
        assert!(
            matches!(parse(&exact, 64), ReadOutcome::Request { request, .. } if request.body.len() == 64)
        );
        let outcome = parse(b"POST /scenes HTTP/1.1\r\nContent-Length: 4096\r\n\r\n", 64);
        match outcome {
            ReadOutcome::Malformed(error) => {
                assert_eq!(error, HttpError::BodyTooLarge { limit: 64 });
                assert_eq!(status_for_http_error(&error), 413);
            }
            other => panic!("expected 413 refusal, got {other:?}"),
        }
    }

    #[test]
    fn truncated_body_is_a_typed_400_not_an_io_error() {
        let outcome = parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc", 1024);
        match outcome {
            ReadOutcome::Malformed(error) => {
                assert_eq!(error, HttpError::TruncatedBody);
                assert_eq!(status_for_http_error(&error), 400);
            }
            other => panic!("expected truncated-body refusal, got {other:?}"),
        }
    }

    #[test]
    fn response_writers_report_exact_wire_bytes() {
        let mut wire = Vec::new();
        let written =
            write_response(&mut wire, 200, &[], "text/plain", b"ok\n").expect("write to vec");
        assert_eq!(written as usize, wire.len());
        let text = String::from_utf8(wire).expect("ascii response");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.ends_with("\r\n\r\nok\n"));

        let mut chunked = Vec::new();
        let mut total =
            write_chunked_head(&mut chunked, 200, &[], "application/octet-stream").expect("head");
        total += write_chunk(&mut chunked, b"abc").expect("chunk");
        total += write_chunk(&mut chunked, b"").expect("empty chunk skipped");
        total += finish_chunks(&mut chunked).expect("terminator");
        assert_eq!(total as usize, chunked.len());
        let text = String::from_utf8(chunked).expect("ascii response");
        assert!(text.contains("Transfer-Encoding: chunked"));
        assert!(text.ends_with("3\r\nabc\r\n0\r\n\r\n"));
    }

    #[test]
    fn head_budget_bounds_hostile_header_streams() {
        // `MAX_HEADERS` header lines are read, one more is refused.
        let with_headers = |count: usize| {
            let mut wire = String::from("GET / HTTP/1.1\r\n");
            (0..count).for_each(|i| wire.push_str(&format!("X-{i}: v\r\n")));
            wire.push_str("\r\n");
            parse(wire.as_bytes(), 1024)
        };
        assert!(matches!(
            with_headers(MAX_HEADERS),
            ReadOutcome::Request { request, .. } if request.headers.len() == MAX_HEADERS
        ));
        assert!(matches!(
            with_headers(MAX_HEADERS + 1),
            ReadOutcome::Malformed(HttpError::TooManyHeaders)
        ));

        let mut wire = Vec::from(&b"GET / HTTP/1.1\r\n"[..]);
        wire.resize(wire.len() + MAX_HEAD_BYTES, b'a');
        assert!(matches!(
            parse(&wire, 1024),
            ReadOutcome::Malformed(HttpError::HeadTooLarge)
        ));
    }
}
