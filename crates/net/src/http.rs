//! Incremental HTTP/1.1 parsing for the cluster front door.
//!
//! Deliberately small: the front door serves `POST /v1/op`,
//! `GET /metrics`, and `GET /status` over keep-alive connections, so
//! the parser handles request lines, plain headers, `Content-Length`
//! bodies, and pipelining — and rejects everything exotic
//! (`Transfer-Encoding`, headers past 8 KiB, bodies past 64 KiB) with
//! typed errors so the reactor can answer 4xx and close. A matching
//! [`ResponseParser`] decodes the load generator's HTTP replies. Both sides decode byte-dribble input identically to one-shot
//! input (pinned by proptests).

use std::fmt;

/// Maximum bytes of request line + headers.
pub const MAX_HEAD: usize = 8 * 1024;
/// Maximum body bytes the front door accepts.
pub const MAX_BODY: usize = 64 * 1024;

/// Typed parse failure. All variants are protocol violations: the
/// server answers with the paired status code and closes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Request line is not `METHOD SP target SP HTTP/1.x`.
    BadRequestLine,
    /// HTTP version other than 1.0 / 1.1.
    BadVersion,
    /// A header line without a colon.
    BadHeader,
    /// `Content-Length` missing, duplicated inconsistently, or non-numeric.
    BadContentLength,
    /// Request line + headers exceed [`MAX_HEAD`].
    HeadTooLarge,
    /// Declared body exceeds [`MAX_BODY`].
    BodyTooLarge {
        /// Length the client declared.
        declared: usize,
    },
    /// `Transfer-Encoding` is not supported.
    UnsupportedTransferEncoding,
    /// Status line is not `HTTP/1.x NNN reason` (response side).
    BadStatusLine,
}

impl HttpError {
    /// The status code a server should answer this violation with.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::BodyTooLarge { .. } => 413,
            HttpError::HeadTooLarge => 431,
            HttpError::UnsupportedTransferEncoding => 501,
            _ => 400,
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::BadRequestLine => write!(f, "malformed request line"),
            HttpError::BadVersion => write!(f, "unsupported HTTP version"),
            HttpError::BadHeader => write!(f, "malformed header"),
            HttpError::BadContentLength => write!(f, "bad content-length"),
            HttpError::HeadTooLarge => write!(f, "headers exceed {MAX_HEAD} bytes"),
            HttpError::BodyTooLarge { declared } => {
                write!(f, "declared body of {declared} bytes exceeds {MAX_BODY}")
            }
            HttpError::UnsupportedTransferEncoding => write!(f, "transfer-encoding unsupported"),
            HttpError::BadStatusLine => write!(f, "malformed status line"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Request methods the front door distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `GET`
    Get,
    /// `POST`
    Post,
    /// `HEAD`
    Head,
    /// Anything else (answered 405).
    Other,
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Parsed method.
    pub method: Method,
    /// Request target exactly as sent (e.g. `/v1/op`).
    pub target: String,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
    /// Request body (empty unless `Content-Length` was given).
    pub body: Vec<u8>,
}

/// Incremental request parser with pipelining support.
///
/// Feed bytes with [`extend`], pull complete requests with [`next_request`].
/// The parser retains unconsumed bytes across calls, so back-to-back
/// pipelined requests in one TCP segment each come out of successive
/// `next_request` calls.
///
/// [`extend`]: RequestParser::extend
/// [`next_request`]: RequestParser::next_request
#[derive(Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    pos: usize,
}

impl RequestParser {
    /// A fresh parser.
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Append bytes read from the connection.
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.pos > 0 && self.pos >= self.buf.len().saturating_sub(self.pos) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as requests.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Pull the next complete request, `Ok(None)` if more bytes are needed.
    pub fn next_request(&mut self) -> Result<Option<Request>, HttpError> {
        // Skip stray CRLF between pipelined requests (RFC 9112 §2.2).
        while self.pos < self.buf.len()
            && (self.buf[self.pos] == b'\r' || self.buf[self.pos] == b'\n')
        {
            self.pos += 1;
        }
        let data = &self.buf[self.pos..];
        if data.is_empty() {
            return Ok(None);
        }
        let head_end = match find_head_end(data) {
            Some(i) => i,
            None => {
                if data.len() > MAX_HEAD {
                    return Err(HttpError::HeadTooLarge);
                }
                return Ok(None);
            }
        };
        if head_end > MAX_HEAD {
            return Err(HttpError::HeadTooLarge);
        }
        let head = &data[..head_end];
        let mut lines = head.split(|&b| b == b'\n').map(trim_cr);
        let request_line = lines.next().ok_or(HttpError::BadRequestLine)?;
        let (method, target, version11) = parse_request_line(request_line)?;

        let mut content_length: Option<usize> = None;
        let mut keep_alive = version11; // HTTP/1.1 defaults to keep-alive
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (name, value) = split_header(line)?;
            if eq_ignore_case(name, b"content-length") {
                let v = parse_decimal(value).ok_or(HttpError::BadContentLength)?;
                if let Some(prev) = content_length {
                    if prev != v {
                        return Err(HttpError::BadContentLength);
                    }
                }
                content_length = Some(v);
            } else if eq_ignore_case(name, b"transfer-encoding") {
                return Err(HttpError::UnsupportedTransferEncoding);
            } else if eq_ignore_case(name, b"connection") {
                if contains_token_ignore_case(value, b"close") {
                    keep_alive = false;
                } else if contains_token_ignore_case(value, b"keep-alive") {
                    keep_alive = true;
                }
            }
        }
        let body_len = content_length.unwrap_or(0);
        if body_len > MAX_BODY {
            return Err(HttpError::BodyTooLarge { declared: body_len });
        }
        // +4 for the CRLFCRLF terminator find_head_end excludes.
        let total = head_end + 4 + body_len;
        if data.len() < total {
            return Ok(None);
        }
        let body = data[head_end + 4..total].to_vec();
        let target = String::from_utf8_lossy(target).into_owned();
        self.pos += total;
        Ok(Some(Request {
            method,
            target,
            keep_alive,
            body,
        }))
    }
}

/// One parsed response (client side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Numeric status code.
    pub status: u16,
    /// Whether the server will keep the connection open.
    pub keep_alive: bool,
    /// Response body.
    pub body: Vec<u8>,
}

/// Incremental response parser for the load generator's HTTP client.
#[derive(Default)]
pub struct ResponseParser {
    buf: Vec<u8>,
    pos: usize,
}

impl ResponseParser {
    /// A fresh parser.
    pub fn new() -> ResponseParser {
        ResponseParser::default()
    }

    /// Append bytes read from the connection.
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.pos > 0 && self.pos >= self.buf.len().saturating_sub(self.pos) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as responses.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Pull the next complete response, `Ok(None)` if more bytes are needed.
    pub fn next_response(&mut self) -> Result<Option<Response>, HttpError> {
        while self.pos < self.buf.len()
            && (self.buf[self.pos] == b'\r' || self.buf[self.pos] == b'\n')
        {
            self.pos += 1;
        }
        let data = &self.buf[self.pos..];
        if data.is_empty() {
            return Ok(None);
        }
        let head_end = match find_head_end(data) {
            Some(i) => i,
            None => {
                if data.len() > MAX_HEAD {
                    return Err(HttpError::HeadTooLarge);
                }
                return Ok(None);
            }
        };
        let head = &data[..head_end];
        let mut lines = head.split(|&b| b == b'\n').map(trim_cr);
        let status_line = lines.next().ok_or(HttpError::BadStatusLine)?;
        let (status, version11) = parse_status_line(status_line)?;
        let mut content_length: Option<usize> = None;
        let mut keep_alive = version11;
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (name, value) = split_header(line)?;
            if eq_ignore_case(name, b"content-length") {
                content_length = Some(parse_decimal(value).ok_or(HttpError::BadContentLength)?);
            } else if eq_ignore_case(name, b"transfer-encoding") {
                return Err(HttpError::UnsupportedTransferEncoding);
            } else if eq_ignore_case(name, b"connection")
                && contains_token_ignore_case(value, b"close")
            {
                keep_alive = false;
            }
        }
        let body_len = content_length.unwrap_or(0);
        if body_len > MAX_BODY {
            return Err(HttpError::BodyTooLarge { declared: body_len });
        }
        let total = head_end + 4 + body_len;
        if data.len() < total {
            return Ok(None);
        }
        let body = data[head_end + 4..total].to_vec();
        self.pos += total;
        Ok(Some(Response {
            status,
            keep_alive,
            body,
        }))
    }
}

/// Serialize a response into `out` (appends; does not clear).
pub fn write_response(
    out: &mut Vec<u8>,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) {
    use std::io::Write as _;
    let _ = write!(out, "HTTP/1.1 {status} {reason}\r\n");
    let _ = write!(out, "content-type: {content_type}\r\n");
    let _ = write!(out, "content-length: {}\r\n", body.len());
    for (name, value) in extra_headers {
        let _ = write!(out, "{name}: {value}\r\n");
    }
    if !keep_alive {
        out.extend_from_slice(b"connection: close\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
}

/// Offset of the head (request/status line + headers) — the index of
/// the `\r\n\r\n` terminator, exclusive.
fn find_head_end(data: &[u8]) -> Option<usize> {
    data.windows(4).position(|w| w == b"\r\n\r\n")
}

fn trim_cr(line: &[u8]) -> &[u8] {
    match line.last() {
        Some(b'\r') => &line[..line.len() - 1],
        _ => line,
    }
}

fn parse_request_line(line: &[u8]) -> Result<(Method, &[u8], bool), HttpError> {
    let mut parts = line.split(|&b| b == b' ').filter(|p| !p.is_empty());
    let method = parts.next().ok_or(HttpError::BadRequestLine)?;
    let target = parts.next().ok_or(HttpError::BadRequestLine)?;
    let version = parts.next().ok_or(HttpError::BadRequestLine)?;
    if parts.next().is_some() {
        return Err(HttpError::BadRequestLine);
    }
    let version11 = match version {
        b"HTTP/1.1" => true,
        b"HTTP/1.0" => false,
        _ => return Err(HttpError::BadVersion),
    };
    let method = match method {
        b"GET" => Method::Get,
        b"POST" => Method::Post,
        b"HEAD" => Method::Head,
        _ => Method::Other,
    };
    Ok((method, target, version11))
}

fn parse_status_line(line: &[u8]) -> Result<(u16, bool), HttpError> {
    let mut parts = line.splitn(3, |&b| b == b' ');
    let version = parts.next().ok_or(HttpError::BadStatusLine)?;
    let code = parts.next().ok_or(HttpError::BadStatusLine)?;
    let version11 = match version {
        b"HTTP/1.1" => true,
        b"HTTP/1.0" => false,
        _ => return Err(HttpError::BadVersion),
    };
    let status = parse_decimal(code).ok_or(HttpError::BadStatusLine)?;
    if !(100..=599).contains(&status) {
        return Err(HttpError::BadStatusLine);
    }
    Ok((status as u16, version11))
}

fn split_header(line: &[u8]) -> Result<(&[u8], &[u8]), HttpError> {
    let colon = line
        .iter()
        .position(|&b| b == b':')
        .ok_or(HttpError::BadHeader)?;
    let name = trim_ws(&line[..colon]);
    let value = trim_ws(&line[colon + 1..]);
    if name.is_empty() {
        return Err(HttpError::BadHeader);
    }
    Ok((name, value))
}

fn trim_ws(mut s: &[u8]) -> &[u8] {
    while let [b' ' | b'\t', rest @ ..] = s {
        s = rest;
    }
    while let [rest @ .., b' ' | b'\t'] = s {
        s = rest;
    }
    s
}

fn eq_ignore_case(a: &[u8], b: &[u8]) -> bool {
    a.eq_ignore_ascii_case(b)
}

fn contains_token_ignore_case(value: &[u8], token: &[u8]) -> bool {
    value
        .split(|&b| b == b',')
        .any(|part| eq_ignore_case(trim_ws(part), token))
}

fn parse_decimal(s: &[u8]) -> Option<usize> {
    if s.is_empty() || s.len() > 10 {
        return None;
    }
    let mut v: usize = 0;
    for &b in s {
        if !b.is_ascii_digit() {
            return None;
        }
        v = v.checked_mul(10)?.checked_add((b - b'0') as usize)?;
    }
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_get_keep_alive() {
        let mut p = RequestParser::new();
        p.extend(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        let req = p.next_request().unwrap().unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.target, "/metrics");
        assert!(req.keep_alive);
        assert!(req.body.is_empty());
        assert_eq!(p.next_request().unwrap(), None);
    }

    #[test]
    fn post_with_body_split_byte_by_byte() {
        let raw = b"POST /v1/op HTTP/1.1\r\ncontent-length: 15\r\n\r\n{\"op\":\"update\"}";
        let mut p = RequestParser::new();
        let mut got = None;
        for &b in raw.iter() {
            p.extend(&[b]);
            if let Some(req) = p.next_request().unwrap() {
                got = Some(req);
            }
        }
        let req = got.expect("request should complete");
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.body, b"{\"op\":\"update\"}");
    }

    #[test]
    fn pipelined_requests_in_one_segment() {
        let mut p = RequestParser::new();
        p.extend(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n");
        let a = p.next_request().unwrap().unwrap();
        let b = p.next_request().unwrap().unwrap();
        assert_eq!(a.target, "/a");
        assert!(a.keep_alive);
        assert_eq!(b.target, "/b");
        assert!(!b.keep_alive);
        assert_eq!(p.next_request().unwrap(), None);
    }

    #[test]
    fn http10_defaults_to_close() {
        let mut p = RequestParser::new();
        p.extend(b"GET / HTTP/1.0\r\n\r\n");
        assert!(!p.next_request().unwrap().unwrap().keep_alive);
    }

    #[test]
    fn typed_errors() {
        let mut p = RequestParser::new();
        p.extend(b"NOT A REQUEST LINE AT ALL\r\n\r\n");
        assert_eq!(p.next_request(), Err(HttpError::BadRequestLine));

        let mut p = RequestParser::new();
        p.extend(b"GET / HTTP/2.0\r\n\r\n");
        assert_eq!(p.next_request(), Err(HttpError::BadVersion));

        let mut p = RequestParser::new();
        p.extend(b"POST / HTTP/1.1\r\ncontent-length: zebra\r\n\r\n");
        assert_eq!(p.next_request(), Err(HttpError::BadContentLength));

        let mut p = RequestParser::new();
        p.extend(b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n");
        assert_eq!(
            p.next_request(),
            Err(HttpError::UnsupportedTransferEncoding)
        );

        let mut p = RequestParser::new();
        let huge = format!(
            "POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        p.extend(huge.as_bytes());
        assert_eq!(
            p.next_request(),
            Err(HttpError::BodyTooLarge {
                declared: MAX_BODY + 1
            })
        );
    }

    #[test]
    fn head_too_large() {
        let mut p = RequestParser::new();
        p.extend(b"GET / HTTP/1.1\r\n");
        let filler = vec![b'a'; MAX_HEAD + 16];
        p.extend(b"x-f: ");
        p.extend(&filler);
        assert_eq!(p.next_request(), Err(HttpError::HeadTooLarge));
    }

    #[test]
    fn response_roundtrip() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            429,
            "Too Many Requests",
            "application/json",
            &[("retry-after", "1")],
            b"{\"error\":\"overloaded\"}",
            true,
        );
        let mut p = ResponseParser::new();
        // dribble 3 bytes at a time
        let mut got = None;
        for chunk in out.chunks(3) {
            p.extend(chunk);
            if let Some(r) = p.next_response().unwrap() {
                got = Some(r);
            }
        }
        let r = got.unwrap();
        assert_eq!(r.status, 429);
        assert!(r.keep_alive);
        assert_eq!(r.body, b"{\"error\":\"overloaded\"}");
    }
}
