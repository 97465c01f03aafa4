//! A minimal blocking HTTP/1.1 client for the front door.
//!
//! Shared by the `benchmark/` package, the loopback e2e tests and the
//! `splat-serve` process test so they all speak the exact wire dialect
//! the server emits — `Content-Length` responses and chunked trajectory
//! streams. Failures surface as `io::Error` (`InvalidData` for framing
//! violations); the client never panics on hostile bytes.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One complete (non-streaming) response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// `(lowercased-name, value)` header pairs in wire order.
    pub(crate) headers: Vec<(String, String)>,
    /// The response body (chunked bodies are reassembled).
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First value of the named header (name compared lowercase).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(key, _)| key == name)
            .map(|(_, value)| value.as_str())
    }
}

/// A keep-alive connection to a `splat-serve` instance.
#[derive(Debug)]
pub struct Connection {
    reader: BufReader<TcpStream>,
}

fn invalid(message: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

fn read_line(reader: &mut impl BufRead) -> io::Result<String> {
    let mut line = String::new();
    let read = reader.read_line(&mut line)?;
    if read == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        ));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

impl Connection {
    /// Opens a connection with the given read timeout.
    pub fn open(addr: &str, read_timeout: Duration) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(read_timeout))?;
        stream.set_nodelay(true)?;
        Ok(Self {
            reader: BufReader::new(stream),
        })
    }

    fn stream(&mut self) -> &mut TcpStream {
        self.reader.get_mut()
    }

    /// Sends a request head and body. The body is framed with
    /// `Content-Length`; pass `&[]` for body-less requests.
    pub fn send_request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<()> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: splat-serve\r\nContent-Length: {}\r\n\r\n",
            body.len(),
        );
        let stream = self.stream();
        stream.write_all(head.as_bytes())?;
        stream.write_all(body)?;
        stream.flush()
    }

    /// Sends only the head and the first `partial` bytes of a body that
    /// claims `declared` bytes, then stops — used to exercise the
    /// server's truncated-body handling.
    pub fn send_truncated_request(
        &mut self,
        method: &str,
        path: &str,
        declared: usize,
        partial: &[u8],
    ) -> io::Result<()> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: splat-serve\r\nContent-Length: {declared}\r\n\r\n",
        );
        let stream = self.stream();
        stream.write_all(head.as_bytes())?;
        stream.write_all(partial)?;
        stream.flush()?;
        // Half-close the write side so the server sees EOF, not a stall.
        stream.shutdown(std::net::Shutdown::Write)
    }

    /// Reads a status line and headers, leaving the body unread.
    pub fn read_response_head(&mut self) -> io::Result<(u16, Vec<(String, String)>)> {
        let status_line = read_line(&mut self.reader)?;
        let mut parts = status_line.split_ascii_whitespace();
        let status = match (parts.next(), parts.next()) {
            (Some(version), Some(code)) if version.starts_with("HTTP/1.") => code
                .parse::<u16>()
                .map_err(|_| invalid("malformed status code"))?,
            _ => return Err(invalid("malformed status line")),
        };
        let mut headers = Vec::new();
        loop {
            let line = read_line(&mut self.reader)?;
            if line.is_empty() {
                break;
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| invalid("malformed header"))?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
        Ok((status, headers))
    }

    fn content_length(headers: &[(String, String)]) -> io::Result<Option<usize>> {
        let Some((_, value)) = headers.iter().find(|(name, _)| name == "content-length") else {
            return Ok(None);
        };
        value
            .parse::<usize>()
            .map(Some)
            .map_err(|_| invalid("malformed Content-Length"))
    }

    fn is_chunked(headers: &[(String, String)]) -> bool {
        headers
            .iter()
            .any(|(name, value)| name == "transfer-encoding" && value.contains("chunked"))
    }

    /// Reads one chunk of a chunked body; `Ok(None)` at the terminal
    /// chunk (trailing CRLF consumed).
    pub fn read_chunk(&mut self) -> io::Result<Option<Vec<u8>>> {
        let size_line = read_line(&mut self.reader)?;
        let size_text = size_line.split(';').next().unwrap_or("").trim();
        let size =
            usize::from_str_radix(size_text, 16).map_err(|_| invalid("malformed chunk size"))?;
        if size == 0 {
            // Consume the trailer terminator (no trailers are sent).
            let trailer = read_line(&mut self.reader)?;
            if !trailer.is_empty() {
                let _ = read_line(&mut self.reader)?;
            }
            return Ok(None);
        }
        let mut chunk = vec![0u8; size];
        self.reader.read_exact(&mut chunk)?;
        let mut crlf = [0u8; 2];
        self.reader.read_exact(&mut crlf)?;
        if crlf != *b"\r\n" {
            return Err(invalid("chunk missing CRLF terminator"));
        }
        Ok(Some(chunk))
    }

    fn read_body(&mut self, headers: &[(String, String)]) -> io::Result<Vec<u8>> {
        if Self::is_chunked(headers) {
            let mut body = Vec::new();
            while let Some(chunk) = self.read_chunk()? {
                body.extend_from_slice(&chunk);
            }
            return Ok(body);
        }
        let length = Self::content_length(headers)?.unwrap_or(0);
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok(body)
    }

    /// One full request/response exchange (chunked bodies reassembled).
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<ClientResponse> {
        self.send_request(method, path, body)?;
        self.read_response()
    }

    /// Reads a complete response (head plus body).
    pub fn read_response(&mut self) -> io::Result<ClientResponse> {
        let (status, headers) = self.read_response_head()?;
        let body = self.read_body(&headers)?;
        Ok(ClientResponse {
            status,
            headers,
            body,
        })
    }
}

/// Convenience: one exchange over a fresh connection.
pub fn one_shot(
    addr: &str,
    read_timeout: Duration,
    method: &str,
    path: &str,
    body: &[u8],
) -> io::Result<ClientResponse> {
    Connection::open(addr, read_timeout)?.request(method, path, body)
}
