//! Incremental HTTP/1.1 parsing and encoding for the event reactor (and
//! for clients: [`parse_response`] reads what [`encode_response`] wrote).
//!
//! The parser is a pure function over a byte buffer: callers append
//! whatever the socket produced (one byte at a time is fine) and call
//! [`parse_request`] again. `Ok(None)` means "incomplete, read more";
//! `Ok(Some(_))` reports how many bytes the request consumed so the
//! caller can drain them and immediately re-parse — which is exactly
//! pipelining. Framing is `Content-Length` only (no chunked bodies).
//!
//! Hard limits keep hostile clients bounded: a header block over
//! [`MAX_HEADER_BYTES`] is rejected with `431`, a declared body over
//! [`MAX_BODY_BYTES`] with `413` — both *before* buffering the offending
//! bytes. Line endings are tolerated as CRLF or lone LF, and a CRLF split
//! across two reads parses identically to one arriving whole.

use std::fmt;

/// Largest accepted header block (request line + headers + terminator).
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Largest accepted request body, a backstop against hostile clients.
/// Sized for CSV dataset uploads (`POST /datasets/:name`), not just JSON.
pub const MAX_BODY_BYTES: usize = 16 << 20;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercased method (`GET`, `POST`, `DELETE`, ...).
    pub method: String,
    /// Percent-decoded path, without the query string.
    pub path: String,
    /// Percent-decoded `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
    /// `(name, value)` header pairs in arrival order, names lowercased
    /// and values trimmed.
    pub headers: Vec<(String, String)>,
    /// Raw request body.
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of header `name` (case-insensitive), if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The first value of query parameter `key`, if present.
    #[must_use]
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Parses a query parameter, defaulting when absent.
    ///
    /// # Errors
    ///
    /// [`ParseError::BadRequest`] when present but unparseable.
    pub fn parsed_param<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
    ) -> Result<T, ParseError> {
        match self.query_param(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| ParseError::BadRequest(format!("bad query parameter {key}={raw:?}"))),
        }
    }

    /// The body as UTF-8 text.
    ///
    /// # Errors
    ///
    /// [`ParseError::BadRequest`] on invalid UTF-8.
    pub fn body_text(&self) -> Result<&str, ParseError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| ParseError::BadRequest("body is not UTF-8".into()))
    }
}

/// An HTTP response ready to serialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes (JSON everywhere except `GET /metrics`).
    pub body: String,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Emits a `Retry-After: <secs>` header when set (shed responses).
    pub retry_after: Option<u32>,
    /// Emits an `X-Request-Id: <id>` header when set, echoing the id the
    /// request was traced under (honored or generated). Values come from
    /// `crate::trace` and are sanitized there — never raw client bytes.
    pub request_id: Option<String>,
}

impl Response {
    /// A `200 OK` JSON response.
    #[must_use]
    pub fn json(body: String) -> Self {
        Self::with_status(200, body)
    }

    /// A JSON response with an explicit status.
    #[must_use]
    pub fn with_status(status: u16, body: String) -> Self {
        Self {
            status,
            body,
            content_type: "application/json",
            retry_after: None,
            request_id: None,
        }
    }

    /// A `200 OK` plain-text response in the Prometheus exposition
    /// content type.
    #[must_use]
    pub fn prometheus(body: String) -> Self {
        Self {
            status: 200,
            body,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            retry_after: None,
            request_id: None,
        }
    }

    /// A `200 OK` plain-text response (folded-stack trace export).
    #[must_use]
    pub fn text(body: String) -> Self {
        Self {
            status: 200,
            body,
            content_type: "text/plain; charset=utf-8",
            retry_after: None,
            request_id: None,
        }
    }

    /// The `503 Service Unavailable` shed response, carrying
    /// `Retry-After: <secs>` so well-behaved clients back off instead of
    /// hammering an overloaded server.
    #[must_use]
    pub fn unavailable(retry_after_secs: u32) -> Self {
        Self {
            status: 503,
            body: "{\"error\": \"overloaded, retry later\"}".to_owned(),
            content_type: "application/json",
            retry_after: Some(retry_after_secs),
            request_id: None,
        }
    }
}

/// Request dispatch, implemented by `viewseeker-server`'s `Router`.
pub trait Handler: Send + Sync + 'static {
    /// Produces the response for one request.
    fn handle(&self, request: &Request) -> Response;

    /// Like [`Handler::handle`], with the request's live trace so the
    /// handler can stamp its own stage spans (route, serialization, the
    /// seeker's phase breakdown). The default ignores the trace, so
    /// plain handlers keep working untraced.
    fn handle_traced(&self, request: &Request, trace: &crate::trace::ActiveTrace) -> Response {
        let _ = trace;
        self.handle(request)
    }
}

/// The reason phrase for a status code.
#[must_use]
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Why a byte stream failed to parse as a request. Each variant carries
/// the HTTP status the connection should answer with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Malformed request line, header, or (for the accessor helpers)
    /// request content — answered with `400`.
    BadRequest(String),
    /// Header block exceeds [`MAX_HEADER_BYTES`] — answered with `431`.
    HeadersTooLarge,
    /// Declared body exceeds [`MAX_BODY_BYTES`] — answered with `413`.
    BodyTooLarge(usize),
}

impl ParseError {
    /// The HTTP status this error maps to.
    #[must_use]
    pub fn status(&self) -> u16 {
        match self {
            ParseError::BadRequest(_) => 400,
            ParseError::HeadersTooLarge => 431,
            ParseError::BodyTooLarge(_) => 413,
        }
    }

    /// A human-readable message for the error body.
    #[must_use]
    pub fn message(&self) -> String {
        match self {
            ParseError::BadRequest(m) => m.clone(),
            ParseError::HeadersTooLarge => {
                format!("header block exceeds the {MAX_HEADER_BYTES}-byte limit")
            }
            ParseError::BodyTooLarge(n) => {
                format!("body of {n} bytes exceeds the {MAX_BODY_BYTES}-byte limit")
            }
        }
    }

    /// The error rendered as a ready-to-send [`Response`].
    #[must_use]
    pub fn to_response(&self) -> Response {
        Response::with_status(
            self.status(),
            format!("{{\"error\": {:?}}}", self.message()),
        )
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message())
    }
}

impl std::error::Error for ParseError {}

/// A complete request lifted out of the read buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parsed {
    /// The request itself.
    pub request: Request,
    /// Bytes of the buffer this request consumed (head + body). The
    /// caller drains exactly this many and re-parses for pipelining.
    pub consumed: usize,
    /// Whether the connection should stay open after the response:
    /// HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close, and an
    /// explicit `Connection:` header overrides either.
    pub keep_alive: bool,
}

/// Byte offset one past the blank line ending the header block, i.e. the
/// start of the body. Accepts CRLF and lone-LF line endings (and any mix).
fn find_header_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0usize;
    while i < buf.len() {
        if buf.get(i) == Some(&b'\n') {
            match (buf.get(i + 1), buf.get(i + 2)) {
                (Some(&b'\r'), Some(&b'\n')) => return Some(i + 3),
                (Some(&b'\n'), _) => return Some(i + 2),
                _ => {}
            }
        }
        i += 1;
    }
    None
}

/// Splits `target` into a percent-decoded path and query pairs.
fn parse_target(target: &str) -> (String, Vec<(String, String)>) {
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(raw_path);
    let query = raw_query
        .map(|q| {
            q.split('&')
                .filter(|pair| !pair.is_empty())
                .map(|pair| match pair.split_once('=') {
                    Some((k, v)) => (percent_decode(k), percent_decode(v)),
                    None => (percent_decode(pair), String::new()),
                })
                .collect()
        })
        .unwrap_or_default();
    (path, query)
}

/// Tries to lift one complete request off the front of `buf`.
///
/// Returns `Ok(None)` when the buffer holds only a prefix of a request —
/// append more bytes and call again. On `Ok(Some(parsed))` the caller
/// must drain `parsed.consumed` bytes before the next call.
///
/// # Errors
///
/// [`ParseError`] when the prefix can never become a valid request;
/// the connection should answer `error.to_response()` and close.
pub fn parse_request(buf: &[u8]) -> Result<Option<Parsed>, ParseError> {
    let Some(head_end) = find_header_end(buf) else {
        if buf.len() > MAX_HEADER_BYTES {
            return Err(ParseError::HeadersTooLarge);
        }
        return Ok(None);
    };
    if head_end > MAX_HEADER_BYTES {
        return Err(ParseError::HeadersTooLarge);
    }
    let head = buf.get(..head_end).unwrap_or_default();
    let head_text = String::from_utf8_lossy(head);
    let mut lines = head_text.split('\n').map(|l| l.trim_end_matches('\r'));

    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Err(ParseError::BadRequest("malformed request line".into()));
    };
    // No version token (HTTP/0.9-style) is treated as HTTP/1.0: close by
    // default, no pipelining assumed. A present token that is not an
    // HTTP version means this is not HTTP at all — reject, don't route.
    let version = parts.next();
    if let Some(v) = version {
        if !v.starts_with("HTTP/") {
            return Err(ParseError::BadRequest("malformed request line".into()));
        }
    }
    let http11 = version == Some("HTTP/1.1");

    let mut content_length = 0usize;
    let mut keep_alive = http11;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        headers.push((name.trim().to_ascii_lowercase(), value.to_owned()));
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| ParseError::BadRequest("bad Content-Length".into()))?;
        } else if name.eq_ignore_ascii_case("connection") {
            let value = value.to_ascii_lowercase();
            if value.split(',').any(|t| t.trim() == "close") {
                keep_alive = false;
            } else if value.split(',').any(|t| t.trim() == "keep-alive") {
                keep_alive = true;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(ParseError::BodyTooLarge(content_length));
    }
    let consumed = head_end.saturating_add(content_length);
    let Some(body) = buf.get(head_end..consumed) else {
        return Ok(None); // body still arriving
    };
    let (path, query) = parse_target(target);
    Ok(Some(Parsed {
        request: Request {
            method: method.to_ascii_uppercase(),
            path,
            query,
            headers,
            body: body.to_vec(),
        },
        consumed,
        keep_alive,
    }))
}

/// Serializes `response` into `out`, with `Connection:` set from
/// `keep_alive` and `Retry-After:` emitted when the response carries one.
pub fn encode_response(response: &Response, keep_alive: bool, out: &mut Vec<u8>) {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        response.status,
        status_text(response.status),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    if let Some(secs) = response.retry_after {
        head.push_str(&format!("Retry-After: {secs}\r\n"));
    }
    if let Some(id) = &response.request_id {
        head.push_str(&format!("X-Request-Id: {id}\r\n"));
    }
    head.push_str("\r\n");
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(response.body.as_bytes());
}

/// A complete response lifted out of a client's read buffer (the
/// cluster's peer client, `viewseeker trace` and the tests are the
/// consumers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedResponse {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Bytes consumed off the front of the buffer.
    pub consumed: usize,
    /// Whether the server will keep the connection open.
    pub keep_alive: bool,
    /// Parsed `Retry-After` header, seconds, when present.
    pub retry_after: Option<u32>,
    /// Parsed `X-Request-Id` header, when present — lets clients
    /// correlate responses with the ids they sent.
    pub request_id: Option<String>,
}

/// Tries to lift one complete response off the front of `buf`; the dual
/// of [`parse_request`] with the same incremental contract.
///
/// # Errors
///
/// [`ParseError::BadRequest`] on a malformed status line or headers,
/// [`ParseError::HeadersTooLarge`]/[`ParseError::BodyTooLarge`] past the
/// shared limits.
pub fn parse_response(buf: &[u8]) -> Result<Option<ParsedResponse>, ParseError> {
    let Some(head_end) = find_header_end(buf) else {
        if buf.len() > MAX_HEADER_BYTES {
            return Err(ParseError::HeadersTooLarge);
        }
        return Ok(None);
    };
    let head = buf.get(..head_end).unwrap_or_default();
    let head_text = String::from_utf8_lossy(head);
    let mut lines = head_text.split('\n').map(|l| l.trim_end_matches('\r'));

    let status_line = lines.next().unwrap_or_default();
    let mut parts = status_line.split_whitespace();
    let version = parts.next().unwrap_or_default();
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::BadRequest(format!(
            "bad status line {status_line:?}"
        )));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ParseError::BadRequest(format!("bad status line {status_line:?}")))?;

    let mut content_length = 0usize;
    let mut keep_alive = version == "HTTP/1.1";
    let mut retry_after = None;
    let mut request_id = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| ParseError::BadRequest("bad Content-Length".into()))?;
        } else if name.eq_ignore_ascii_case("connection") {
            let value = value.to_ascii_lowercase();
            if value.split(',').any(|t| t.trim() == "close") {
                keep_alive = false;
            } else if value.split(',').any(|t| t.trim() == "keep-alive") {
                keep_alive = true;
            }
        } else if name.eq_ignore_ascii_case("retry-after") {
            retry_after = value.parse().ok();
        } else if name.eq_ignore_ascii_case("x-request-id") {
            request_id = Some(value.to_owned());
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(ParseError::BodyTooLarge(content_length));
    }
    let consumed = head_end.saturating_add(content_length);
    let Some(body) = buf.get(head_end..consumed) else {
        return Ok(None);
    };
    Ok(Some(ParsedResponse {
        status,
        body: body.to_vec(),
        consumed,
        keep_alive,
        retry_after,
        request_id,
    }))
}

/// Decodes `%XX` escapes and `+`-as-space in a URL component.
#[must_use]
pub fn percent_decode(raw: &str) -> String {
    let bytes = raw.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while let Some(&byte) = bytes.get(i) {
        match byte {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|h| {
                    std::str::from_utf8(h)
                        .ok()
                        .and_then(|s| u8::from_str_radix(s, 16).ok())
                });
                if let Some(b) = hex {
                    out.push(b);
                    i += 3;
                } else {
                    out.push(b'%');
                    i += 1;
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(raw: &[u8]) -> Parsed {
        parse_request(raw).expect("parse").expect("complete")
    }

    #[test]
    fn parses_a_simple_request() {
        let p = full(b"GET /sessions/s1/next?m=3&q=a%20b HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(p.request.method, "GET");
        assert_eq!(p.request.path, "/sessions/s1/next");
        assert_eq!(p.request.query_param("m"), Some("3"));
        assert_eq!(p.request.query_param("q"), Some("a b"));
        assert!(p.request.body.is_empty());
        assert!(p.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert_eq!(p.consumed, 55);
    }

    #[test]
    fn headers_are_collected_and_case_insensitive() {
        let p = full(b"GET / HTTP/1.1\r\nHost: x\r\nX-Request-Id:  abc-1 \r\n\r\n");
        assert_eq!(p.request.header("host"), Some("x"));
        assert_eq!(p.request.header("X-Request-ID"), Some("abc-1"));
        assert_eq!(p.request.header("missing"), None);
        assert_eq!(p.request.headers.len(), 2);
    }

    #[test]
    fn encode_emits_x_request_id_when_set() {
        let mut response = Response::json("{}".into());
        response.request_id = Some("req-42".into());
        let mut out = Vec::new();
        encode_response(&response, true, &mut out);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("X-Request-Id: req-42\r\n"), "{text}");
        let p = parse_response(text.as_bytes()).unwrap().unwrap();
        assert_eq!(p.status, 200);
    }

    #[test]
    fn byte_at_a_time_delivery_parses_identically() {
        let raw = b"POST /sessions HTTP/1.1\r\nContent-Length: 4\r\nHost: y\r\n\r\n{\"\"}";
        let whole = full(raw);
        let mut buf = Vec::new();
        for (i, &b) in raw.iter().enumerate() {
            buf.push(b);
            let step = parse_request(&buf).expect("never errors");
            if i + 1 < raw.len() {
                assert!(step.is_none(), "complete after only {} bytes", i + 1);
            } else {
                assert_eq!(step.expect("complete at the end"), whole);
            }
        }
        assert_eq!(whole.request.body, b"{\"\"}");
    }

    #[test]
    fn split_crlf_across_reads_is_tolerated() {
        // The header terminator arrives split as ...\r | \n\r\n.
        let mut buf = b"GET / HTTP/1.1\r".to_vec();
        assert_eq!(parse_request(&buf).expect("incomplete"), None);
        buf.extend_from_slice(b"\n\r\n");
        assert_eq!(full(&buf).request.path, "/");
    }

    #[test]
    fn lone_lf_line_endings_parse() {
        let p = full(b"GET /x HTTP/1.1\nHost: z\n\n");
        assert_eq!(p.request.path, "/x");
        assert_eq!(p.consumed, 25);
    }

    #[test]
    fn pipelined_requests_consume_in_sequence() {
        let raw: &[u8] =
            b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /c HTTP/1.1\r\n\r\n";
        let first = full(raw);
        assert_eq!(first.request.path, "/a");
        let rest = &raw[first.consumed..];
        let second = full(rest);
        assert_eq!(second.request.path, "/b");
        assert_eq!(second.request.body, b"hi");
        let third = full(&rest[second.consumed..]);
        assert_eq!(third.request.path, "/c");
        assert_eq!(first.consumed + second.consumed + third.consumed, raw.len());
    }

    #[test]
    fn oversized_header_block_is_431_even_unterminated() {
        let mut raw = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEADER_BYTES + 1));
        let err = parse_request(&raw).expect_err("must reject");
        assert_eq!(err, ParseError::HeadersTooLarge);
        assert_eq!(err.status(), 431);
        assert_eq!(err.to_response().status, 431);
    }

    #[test]
    fn oversized_declared_body_is_413_before_buffering() {
        let raw = format!(
            "POST /d HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let err = parse_request(raw.as_bytes()).expect_err("must reject");
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn malformed_inputs_are_400() {
        assert_eq!(
            parse_request(b"garbage\r\n\r\n")
                .expect_err("reject")
                .status(),
            400
        );
        assert_eq!(
            parse_request(b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
                .expect_err("reject")
                .status(),
            400
        );
        // Three whitespace-separated words are not a request line unless
        // the third is an HTTP version — never route such a frame.
        assert_eq!(
            parse_request(b"NOT A REQUEST\r\n\r\n")
                .expect_err("reject")
                .status(),
            400
        );
    }

    #[test]
    fn keep_alive_defaults_and_overrides() {
        assert!(full(b"GET / HTTP/1.1\r\n\r\n").keep_alive);
        assert!(!full(b"GET / HTTP/1.0\r\n\r\n").keep_alive);
        assert!(
            !full(b"GET /\r\n\r\n").keep_alive,
            "versionless treated as 1.0"
        );
        assert!(!full(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").keep_alive);
        assert!(full(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").keep_alive);
        assert!(!full(b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n").keep_alive);
    }

    #[test]
    fn encode_emits_connection_and_retry_after() {
        let mut out = Vec::new();
        encode_response(&Response::json("{}".into()), true, &mut out);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(!text.contains("Retry-After"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");

        let mut out = Vec::new();
        encode_response(&Response::unavailable(2), false, &mut out);
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{text}"
        );
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.contains("Retry-After: 2\r\n"), "{text}");
    }

    #[test]
    fn response_roundtrips_through_parse_response() {
        let mut out = Vec::new();
        encode_response(
            &Response::with_status(201, "{\"id\":\"s1\"}".into()),
            true,
            &mut out,
        );
        // Incremental: incomplete prefixes report None.
        for cut in 1..out.len() {
            assert_eq!(
                parse_response(&out[..cut]).expect("prefix"),
                None,
                "cut {cut}"
            );
        }
        let p = parse_response(&out).expect("parse").expect("complete");
        assert_eq!(p.status, 201);
        assert_eq!(p.body, b"{\"id\":\"s1\"}");
        assert_eq!(p.consumed, out.len());
        assert!(p.keep_alive);
        assert_eq!(p.retry_after, None);

        let mut out = Vec::new();
        encode_response(&Response::unavailable(3), true, &mut out);
        let p = parse_response(&out).expect("parse").expect("complete");
        assert_eq!((p.status, p.retry_after), (503, Some(3)));
    }

    #[test]
    fn parse_response_rejects_garbage() {
        assert_eq!(
            parse_response(b"not http\r\n\r\n")
                .expect_err("reject")
                .status(),
            400
        );
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a0%20%3D%20'v'"), "a0 = 'v'");
        assert_eq!(percent_decode("a+b"), "a b");
        assert_eq!(percent_decode("plain"), "plain");
        assert_eq!(percent_decode("bad%2"), "bad%2");
    }

    #[test]
    fn accessor_errors_surface_as_bad_request() {
        let p = full(b"GET /x?k=abc HTTP/1.1\r\n\r\n");
        assert_eq!(
            p.request
                .parsed_param("k", 5usize)
                .expect_err("bad")
                .status(),
            400
        );
        assert_eq!(
            p.request.parsed_param("missing", 5usize).expect("default"),
            5
        );
        let mut bad = full(b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\nxx");
        bad.request.body = vec![0xff, 0xfe];
        assert_eq!(bad.request.body_text().expect_err("bad").status(), 400);
    }
}
