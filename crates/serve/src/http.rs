//! Minimal HTTP/1.1 adapter over the same job substrate.
//!
//! Just enough HTTP for curl and load balancer health checks — request
//! line, headers, `Content-Length` body, one response, close. Routes:
//!
//! - `GET /healthz` — liveness (`200`, JSON).
//! - `GET /metrics` — the telemetry registry snapshot as JSON.
//! - `POST /jobs` — submit a legalization job; the body is the DEF text,
//!   query parameters tune it (`?ordering=size|x|random&seed=N&threads=N`).
//!   Answers `202` with the job id, `429` when the queue is full,
//!   `413` when the body exceeds the frame cap.
//! - `GET /jobs/<id>` — job state + stats JSON.
//! - `GET /jobs/<id>/def` — the result DEF of a finished job.
//!
//! Anything fancier (streaming progress, training jobs, budgets) uses the
//! binary protocol; the two share one port — the server sniffs the first
//! bytes for the frame magic.

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method (upper-case).
    pub method: String,
    /// Path including the query string.
    pub target: String,
    /// Headers, lower-cased names.
    pub headers: Vec<(String, String)>,
    /// Request body (`Content-Length`-delimited).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// First value of header `name` (lower-case).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Path without the query string.
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// Value of query parameter `key`.
    pub fn query(&self, key: &str) -> Option<&str> {
        let q = self.target.split_once('?')?.1;
        q.split('&')
            .filter_map(|kv| kv.split_once('='))
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }
}

/// Why a request could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed request line / headers — answer 400 and close.
    BadRequest(String),
    /// Declared body exceeds the configured cap — answer 413 and close.
    TooLarge {
        /// Declared `Content-Length`.
        declared: usize,
    },
}

/// `true` when the buffered prefix looks like an HTTP request rather than
/// a binary frame.
pub fn looks_like_http(prefix: &[u8]) -> bool {
    const METHODS: [&[u8]; 6] = [b"GET ", b"POST", b"HEAD", b"PUT ", b"DELE", b"OPTI"];
    METHODS.iter().any(|m| prefix.starts_with(m))
}

/// Incremental request parser: `Ok(None)` until the full head and body are
/// buffered, then the request plus the bytes it consumed.
///
/// # Errors
///
/// [`HttpError`] on malformed input or an oversized declared body.
pub fn try_parse(buf: &[u8], max_body: usize) -> Result<Option<(HttpRequest, usize)>, HttpError> {
    let Some(head_end) = find_head_end(buf) else {
        // An attacker can grow the head forever without ever finishing it;
        // cap it like a body.
        if buf.len() > 64 * 1024 {
            return Err(HttpError::BadRequest("request head exceeds 64 KiB".into()));
        }
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::BadRequest("non-UTF-8 request head".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::BadRequest(format!(
            "bad request line: {request_line:?}"
        )));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!("unsupported {version}")));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((k, v)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!("bad header line: {line:?}")));
        };
        headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
    }
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| HttpError::BadRequest(format!("bad content-length: {v:?}")))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > max_body {
        return Err(HttpError::TooLarge {
            declared: content_length,
        });
    }
    let body_start = head_end + 4;
    let total = body_start + content_length;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((
        HttpRequest {
            method: method.to_ascii_uppercase(),
            target: target.to_string(),
            headers,
            body: buf[body_start..total].to_vec(),
        },
        total,
    )))
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Renders a complete `Connection: close` response.
pub fn response(status: u16, content_type: &str, body: &[u8]) -> Vec<u8> {
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let mut out = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// A JSON error body.
pub fn json_error(status: u16, message: &str) -> Vec<u8> {
    response(
        status,
        "application/json",
        format!("{{\"error\":{:?}}}", message).as_bytes(),
    )
}

/// [`json_error`] plus a `Retry-After: <seconds>` header — the admission
/// layer's shed hint in the standard HTTP vocabulary.
pub fn json_error_retry_after(status: u16, message: &str, retry_after_s: u64) -> Vec<u8> {
    let mut out = json_error(status, message);
    // Splice the header before the blank line; the response builder
    // always emits "\r\n\r\n" exactly once.
    if let Some(pos) = out.windows(4).position(|w| w == b"\r\n\r\n") {
        let header = format!("\r\nretry-after: {retry_after_s}");
        out.splice(pos..pos, header.into_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_post_with_body_incrementally() {
        let wire = b"POST /jobs?seed=7 HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nHELLO extra";
        // Head only: need more.
        assert_eq!(
            try_parse(&wire[..20], 1024).expect("partial head parses clean"),
            None
        );
        let (req, consumed) = try_parse(wire, 1024)
            .expect("well-formed request parses clean")
            .expect("complete");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path(), "/jobs");
        assert_eq!(req.query("seed"), Some("7"));
        assert_eq!(req.body, b"HELLO");
        assert_eq!(consumed, wire.len() - " extra".len());
        assert_eq!(req.header("host"), Some("x"));
    }

    #[test]
    fn oversized_body_is_rejected_from_the_header_alone() {
        let wire = b"POST /jobs HTTP/1.1\r\nContent-Length: 999999\r\n\r\n";
        assert_eq!(
            try_parse(wire, 1024).unwrap_err(),
            HttpError::TooLarge { declared: 999999 }
        );
    }

    #[test]
    fn garbage_is_bad_request() {
        assert!(matches!(
            try_parse(b"NONSENSE\r\n\r\n", 1024).unwrap_err(),
            HttpError::BadRequest(_)
        ));
    }

    #[test]
    fn sniffer_tells_http_from_frames() {
        assert!(looks_like_http(b"GET /healthz HTTP/1.1"));
        assert!(looks_like_http(b"POST /jobs"));
        assert!(!looks_like_http(&crate::proto::MAGIC));
    }

    #[test]
    fn retry_after_header_is_spliced_in() {
        let r = String::from_utf8(json_error_retry_after(429, "overloaded", 2))
            .expect("ASCII response");
        assert!(r.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(r.contains("\r\nretry-after: 2\r\n"), "got: {r}");
        assert!(r.ends_with("{\"error\":\"overloaded\"}"));
        // The body and its declared length still agree.
        assert!(r.contains(&format!(
            "content-length: {}\r\n",
            "{\"error\":\"overloaded\"}".len()
        )));
    }

    #[test]
    fn response_has_length_and_close() {
        let r = String::from_utf8(response(200, "application/json", b"{}"))
            .expect("response builder emits ASCII");
        assert!(r.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(r.contains("content-length: 2\r\n"));
        assert!(r.contains("connection: close"));
        assert!(r.ends_with("{}"));
    }
}
