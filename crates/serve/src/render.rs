//! Deterministic HTTP response rendering.
//!
//! Responses are bytes in, bytes out: the same [`Response`] encodes to
//! the same octets on every run, every thread count and every platform
//! — no `Date` header, no host clock, no hash-order iteration, fixed
//! six-decimal float formatting. This file is in the mx-lint
//! `deterministic` scope; the replay gate (`tests/serve_gate.rs`)
//! depends on it.

use std::fmt::Write as _;

use mx_obs::json::push_json_str;

/// The `Content-Type` every JSON endpoint sends.
pub const CONTENT_TYPE_JSON: &str = "application/json";
/// The `Content-Type` of the Prometheus text exposition format,
/// returned by `/metrics`.
pub const CONTENT_TYPE_PROM: &str = "text/plain; version=0.0.4; charset=utf-8";

/// A response about to be encoded onto the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes (JSON unless `content_type` says otherwise).
    pub body: Vec<u8>,
    /// `Retry-After` seconds, set on 503 load-shed responses.
    pub retry_after: Option<u64>,
    /// The `Content-Type` header value (static: the server only ever
    /// produces JSON or the Prometheus text format).
    pub content_type: &'static str,
    /// Strong validator fingerprint, rendered as an `ETag` header.
    /// Set on cacheable 200s (and echoed on 304s); the value is a pure
    /// function of the store bytes, so it is replay-deterministic.
    pub etag: Option<u64>,
}

/// Render an etag fingerprint as the quoted strong validator the wire
/// carries — the one formatting both the `ETag` header and the
/// `If-None-Match` comparison use.
pub fn etag_value(tag: u64) -> String {
    format!("\"mx-{tag:016x}\"")
}

impl Response {
    /// A 200 response with a pre-rendered JSON body.
    pub fn ok(body: String) -> Self {
        Response {
            status: 200,
            body: body.into_bytes(),
            retry_after: None,
            content_type: CONTENT_TYPE_JSON,
            etag: None,
        }
    }

    /// A 200 response carrying the Prometheus text exposition format
    /// (the `/metrics` endpoint).
    pub fn text(body: String) -> Self {
        Response {
            status: 200,
            body: body.into_bytes(),
            retry_after: None,
            content_type: CONTENT_TYPE_PROM,
            etag: None,
        }
    }

    /// An error response with a `{"error": ...}` body.
    pub fn error(status: u16, message: &str) -> Self {
        let mut body = String::from("{\"error\":");
        push_json_str(&mut body, message);
        body.push('}');
        Response {
            status,
            body: body.into_bytes(),
            retry_after: None,
            content_type: CONTENT_TYPE_JSON,
            etag: None,
        }
    }

    /// A 304 conditional answer: no body, but the current `ETag` so
    /// the client can keep validating against it.
    pub fn not_modified(tag: u64) -> Self {
        Response {
            status: 304,
            body: Vec::new(),
            retry_after: None,
            content_type: CONTENT_TYPE_JSON,
            etag: Some(tag),
        }
    }

    /// A 503 load-shed response advertising when to retry.
    pub fn shed(retry_after_secs: u64) -> Self {
        Response {
            status: 503,
            body: b"{\"error\":\"overloaded\"}".to_vec(),
            retry_after: Some(retry_after_secs),
            content_type: CONTENT_TYPE_JSON,
            etag: None,
        }
    }

    /// The standard reason phrase for this status.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            304 => "Not Modified",
            400 => "Bad Request",
            404 => "Not Found",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            414 => "URI Too Long",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            505 => "HTTP Version Not Supported",
            _ => "Unknown",
        }
    }

    /// Encode to wire bytes. `head_only` omits the body (HEAD requests)
    /// while keeping the true `Content-Length`; `keep_alive` selects
    /// the `Connection` header.
    pub fn encode(&self, head_only: bool, keep_alive: bool) -> Vec<u8> {
        let mut head = String::new();
        let _ = write!(head, "HTTP/1.1 {} {}\r\n", self.status, self.reason());
        let _ = write!(head, "Content-Type: {}\r\n", self.content_type);
        let _ = write!(head, "Content-Length: {}\r\n", self.body.len());
        if let Some(secs) = self.retry_after {
            let _ = write!(head, "Retry-After: {secs}\r\n");
        }
        if let Some(tag) = self.etag {
            let _ = write!(head, "ETag: {}\r\n", etag_value(tag));
        }
        head.push_str(if keep_alive {
            "Connection: keep-alive\r\n"
        } else {
            "Connection: close\r\n"
        });
        head.push_str("\r\n");
        let mut out = head.into_bytes();
        if !head_only {
            out.extend_from_slice(&self.body);
        }
        out
    }
}

/// Append an `f64` deterministically with six decimal places — enough
/// for market shares and weights, identical on every platform.
pub fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:.6}");
    } else {
        // NaN/inf are not valid JSON; the store never produces them,
        // but the renderer stays total anyway.
        out.push_str("null");
    }
}

/// Append a JSON array literal, rendering each item with `each`.
pub fn push_json_arr<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut each: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        each(out, item);
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json_f64(v: f64) -> String {
        let mut out = String::new();
        push_json_f64(&mut out, v);
        out
    }

    #[test]
    fn floats_fixed_width() {
        assert_eq!(json_f64(0.25), "0.250000");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn encode_roundtrip_shapes() {
        let r = Response::ok("{\"a\":1}".into());
        let bytes = r.encode(false, true);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"a\":1}"));

        let head = r.encode(true, false);
        let text = String::from_utf8(head).unwrap();
        assert!(text.contains("Content-Length: 7\r\n")); // true length
        assert!(text.ends_with("\r\n\r\n")); // no body
        assert!(text.contains("Connection: close\r\n"));
    }

    #[test]
    fn text_response_carries_prometheus_content_type() {
        let text =
            String::from_utf8(Response::text("mx_up 1\n".into()).encode(false, true)).unwrap();
        assert!(text.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"));
        assert!(text.ends_with("\r\n\r\nmx_up 1\n"));
    }

    #[test]
    fn shed_has_retry_after() {
        let text = String::from_utf8(Response::shed(2).encode(false, false)).unwrap();
        assert!(text.contains("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"));
    }

    #[test]
    fn etag_and_not_modified_shapes() {
        let mut ok = Response::ok("{}".into());
        ok.etag = Some(0xDEAD_BEEF);
        let text = String::from_utf8(ok.encode(false, true)).unwrap();
        assert!(text.contains("ETag: \"mx-00000000deadbeef\"\r\n"));

        let nm = Response::not_modified(0xDEAD_BEEF);
        let text = String::from_utf8(nm.encode(false, true)).unwrap();
        assert!(text.starts_with("HTTP/1.1 304 Not Modified\r\n"));
        assert!(text.contains("Content-Length: 0\r\n"));
        assert!(text.contains("ETag: \"mx-00000000deadbeef\"\r\n"));
        assert!(text.ends_with("\r\n\r\n")); // no body ever
    }

    #[test]
    fn arr_joins() {
        let mut out = String::new();
        push_json_arr(&mut out, [1, 2], |o, n| o.push_str(&n.to_string()));
        push_json_arr(&mut out, Vec::<u8>::new(), |_, _| {});
        assert_eq!(out, "[1,2][]");
    }
}
