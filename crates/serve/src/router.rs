//! Request routing and endpoint handlers.
//!
//! Everything here runs on parsed-but-still-hostile input: paths and
//! query parameters are attacker-controlled strings, so this file is
//! in the mx-lint `untrusted` scope — no panicking constructs, no
//! direct indexing, every invalid parameter a 4xx. Handlers are pure
//! functions of `(store, request)`: they take no locks, read no
//! clocks, and return rendered bytes, which is what lets the server
//! run them on any number of `mx-par` workers and still replay
//! byte-identically.

use std::fmt::Write as _;

use crate::http::{Method, Request};
use crate::render::{push_json_arr, push_json_f64, Response};
use mx_analysis::churn::ChurnCategory;
use mx_analysis::store::{
    churn_from_store, credit_shares_at, domains_of_provider, market_share_at,
};
use mx_obs::json::push_json_str;
use mx_store::{StoreError, StoreReader};

/// Maximum domains rendered in a `/providers/{p}/domains` answer; the
/// full count is always reported.
pub const MAX_DOMAINS_RENDER: usize = 1000;
/// Maximum names per category rendered in a diff sample.
pub const MAX_DIFF_SAMPLE: usize = 50;
/// Maximum credits a single `/series` request may track.
pub const MAX_SERIES_CREDITS: usize = 8;

/// Which endpoint a request resolved to, for per-endpoint latency
/// accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `/lookup` — single-domain row.
    Lookup,
    /// `/market` — company market shares at an epoch.
    Market,
    /// `/series` — per-epoch weight/share series for tracked credits.
    Series,
    /// `/churn` — the Figure-7 flow matrix between two epochs.
    Churn,
    /// `/providers/{name}/domains` — postings list.
    Providers,
    /// `/epochs/{a}..{b}/diff` — row-level diff summary.
    Diff,
    /// `/healthz` — liveness; bypasses admission control.
    Healthz,
    /// `/metrics` — live deterministic snapshot (Prometheus text or
    /// JSON); answered from the serial loop.
    Metrics,
    /// `/debug/trace` — the deterministic trace-event tail; answered
    /// from the serial loop.
    DebugTrace,
    /// `/debug/attribution` — critical-path attribution over the stage
    /// tree; answered from the serial loop.
    DebugAttribution,
    /// Anything else (answered 404).
    Other,
}

impl Endpoint {
    /// Classify a decoded request path.
    pub fn of(path: &str) -> Endpoint {
        if path == "/healthz" {
            Endpoint::Healthz
        } else if path == "/metrics" {
            Endpoint::Metrics
        } else if path == "/debug/trace" {
            Endpoint::DebugTrace
        } else if path == "/debug/attribution" {
            Endpoint::DebugAttribution
        } else if path == "/lookup" {
            Endpoint::Lookup
        } else if path == "/market" {
            Endpoint::Market
        } else if path == "/series" {
            Endpoint::Series
        } else if path == "/churn" {
            Endpoint::Churn
        } else if path.starts_with("/providers/") && path.ends_with("/domains") {
            Endpoint::Providers
        } else if path.starts_with("/epochs/") && path.ends_with("/diff") {
            Endpoint::Diff
        } else {
            Endpoint::Other
        }
    }

    /// The obs histogram this endpoint's service latency lands in.
    pub fn latency_metric(self) -> &'static str {
        match self {
            Endpoint::Lookup => mx_obs::names::SERVE_LATENCY_LOOKUP,
            Endpoint::Market => mx_obs::names::SERVE_LATENCY_MARKET,
            Endpoint::Series => mx_obs::names::SERVE_LATENCY_SERIES,
            Endpoint::Churn => mx_obs::names::SERVE_LATENCY_CHURN,
            Endpoint::Providers => mx_obs::names::SERVE_LATENCY_PROVIDERS,
            Endpoint::Diff => mx_obs::names::SERVE_LATENCY_DIFF,
            Endpoint::Metrics | Endpoint::DebugTrace | Endpoint::DebugAttribution => {
                mx_obs::names::SERVE_LATENCY_DEBUG
            }
            Endpoint::Healthz | Endpoint::Other => mx_obs::names::SERVE_LATENCY_HEALTHZ,
        }
    }

    /// The data-plane endpoints: their bodies are pure functions of the
    /// store, so they are cached and carry the store's etag.
    fn is_data_plane(self) -> bool {
        !matches!(
            self,
            Endpoint::Healthz
                | Endpoint::Metrics
                | Endpoint::DebugTrace
                | Endpoint::DebugAttribution
                | Endpoint::Other
        )
    }

    /// Endpoints that read the live observability registries and must
    /// therefore be answered in the serial loop (like `/healthz`), and
    /// never from either cache — their bodies change between requests.
    pub fn is_introspection(self) -> bool {
        matches!(
            self,
            Endpoint::Metrics | Endpoint::DebugTrace | Endpoint::DebugAttribution
        )
    }
}

/// The result of handling one request: the response plus an optional
/// hot-row cache entry the server's serial loop should remember.
#[derive(Debug, Clone)]
pub struct Handled {
    /// The rendered response.
    pub response: Response,
    /// `(key, fragment)` for the row cache, produced by `/lookup`.
    pub row_fragment: Option<(String, String)>,
}

impl Handled {
    fn plain(response: Response) -> Handled {
        Handled {
            response,
            row_fragment: None,
        }
    }
}

/// Shared read-only serving state: the open store.
#[derive(Debug, Clone, Copy)]
pub struct ServeState<'a> {
    /// The snapshot store every endpoint answers from.
    pub reader: &'a StoreReader<'a>,
    /// Strong validator fingerprint of the store, computed once at
    /// construction from the digest sections (see [`store_etag`]).
    pub etag: u64,
}

impl<'a> ServeState<'a> {
    /// Serving state over an open reader.
    pub fn new(reader: &'a StoreReader<'a>) -> Self {
        let etag = store_etag(reader);
        ServeState { reader, etag }
    }

    /// Does this request's `If-None-Match` revalidate the current
    /// store etag? Only data-plane endpoints are conditional (the
    /// cacheable set of [`json_cache_key`]); introspection bodies
    /// change between requests and never carry a validator. Weak
    /// comparison per RFC 7232: a `W/` prefix is ignored and `*`
    /// matches any current representation.
    pub fn revalidates(&self, req: &Request) -> bool {
        if !Endpoint::of(&req.path).is_data_plane() {
            return false;
        }
        let Some(header) = req.header("if-none-match") else {
            return false;
        };
        let current = crate::render::etag_value(self.etag);
        header
            .split(',')
            .map(str::trim)
            .any(|t| t == "*" || t.strip_prefix("W/").unwrap_or(t) == current)
    }

    /// Dispatch a parsed request to its endpoint handler. Total: every
    /// path and parameter combination yields a response.
    pub fn handle(&self, req: &Request) -> Handled {
        // Conditional fast path: a client holding the current etag is
        // told "nothing changed" without rendering anything. The store
        // is immutable while open, so one fingerprint covers every
        // cacheable representation.
        if self.revalidates(req) {
            return Handled::plain(Response::not_modified(self.etag));
        }
        let mut handled = self.dispatch(req);
        if handled.response.status == 200 && Endpoint::of(&req.path).is_data_plane() {
            handled.response.etag = Some(self.etag);
        }
        handled
    }

    fn dispatch(&self, req: &Request) -> Handled {
        match Endpoint::of(&req.path) {
            Endpoint::Healthz => Handled::plain(self.healthz()),
            Endpoint::Metrics => Handled::plain(metrics(req)),
            Endpoint::DebugTrace => Handled::plain(debug_trace(req)),
            Endpoint::DebugAttribution => Handled::plain(debug_attribution()),
            Endpoint::Lookup => self.lookup(req),
            Endpoint::Market => Handled::plain(self.market(req)),
            Endpoint::Series => Handled::plain(self.series(req)),
            Endpoint::Churn => Handled::plain(self.churn(req)),
            Endpoint::Providers => Handled::plain(self.providers(req)),
            Endpoint::Diff => Handled::plain(self.diff(req)),
            Endpoint::Other => Handled::plain(Response::error(404, "no such endpoint")),
        }
    }

    /// `/healthz`: liveness plus store shape. Cheap by design — the
    /// server answers it from the serial loop even while saturated.
    /// Every readable store carries the index footer, so `indexes` is
    /// always `true`; the field stays for clients that read it.
    pub fn healthz(&self) -> Response {
        let body = format!(
            "{{\"status\":\"ok\",\"epochs\":{},\"providers\":{},\"companies\":{},\"indexes\":true}}",
            self.reader.epoch_count(),
            self.reader.providers().len(),
            self.reader.companies().len(),
        );
        Response::ok(body)
    }

    /// Resolve the `epoch` parameter (default: the latest epoch).
    fn epoch_param(&self, req: &Request, name: &str) -> Result<usize, Response> {
        let epochs = self.reader.epoch_count();
        match req.param(name) {
            None => Ok(epochs.saturating_sub(1)),
            Some(s) => match parse_usize(s) {
                None => Err(Response::error(400, "bad epoch parameter")),
                Some(e) if e >= epochs => Err(Response::error(404, "unknown epoch")),
                Some(e) => Ok(e),
            },
        }
    }

    fn lookup(&self, req: &Request) -> Handled {
        let Some(domain) = req.param("domain") else {
            return Handled::plain(Response::error(400, "missing domain parameter"));
        };
        if domain.is_empty() || domain.len() > 255 {
            return Handled::plain(Response::error(400, "bad domain parameter"));
        }
        let epoch = match self.epoch_param(req, "epoch") {
            Ok(e) => e,
            Err(resp) => return Handled::plain(resp),
        };
        let fragment = match self.reader.lookup(domain, epoch) {
            Err(e) => return Handled::plain(store_error(&e)),
            Ok(None) => "null".to_string(),
            Ok(Some(row)) => render_row(&row),
        };
        let response = lookup_response(domain, epoch, &fragment);
        Handled {
            response,
            row_fragment: Some((row_cache_key(domain, epoch), fragment)),
        }
    }

    fn market(&self, req: &Request) -> Response {
        let epoch = match self.epoch_param(req, "epoch") {
            Ok(e) => e,
            Err(resp) => return resp,
        };
        let top = match req.param("top") {
            None => usize::MAX,
            Some(s) => match parse_usize(s) {
                Some(n) if n > 0 => n,
                _ => return Response::error(400, "bad top parameter"),
            },
        };
        let shares = match market_share_at(self.reader, epoch) {
            Ok(s) => s,
            Err(e) => return store_error(&e),
        };
        let rows = shares.rows.iter().take(top);
        let mut body = String::new();
        let _ = write!(
            body,
            "{{\"epoch\":{epoch},\"total_domains\":{},\"rows\":",
            shares.total_domains
        );
        push_json_arr(&mut body, rows, |out, r| {
            out.push_str("{\"company\":");
            push_json_str(out, &r.company);
            out.push_str(",\"weight\":");
            push_json_f64(out, r.weight);
            out.push_str(",\"share\":");
            push_json_f64(out, r.share);
            out.push('}');
        });
        body.push('}');
        Response::ok(body)
    }

    fn series(&self, req: &Request) -> Response {
        let credits: Vec<&str> = req
            .query
            .iter()
            .filter(|(k, _)| k == "credit")
            .map(|(_, v)| v.as_str())
            .collect();
        if credits.is_empty() {
            return Response::error(400, "missing credit parameter");
        }
        if credits.len() > MAX_SERIES_CREDITS {
            return Response::error(400, "too many credits");
        }
        // One rollup scan per epoch; `points` is epoch-major.
        let epochs = self.reader.epoch_count();
        let labels: Vec<&str> = (0..epochs)
            .map(|e| self.reader.label(e).unwrap_or("?"))
            .collect();
        let mut points: Vec<(f64, f64)> = Vec::new();
        for epoch in 0..epochs {
            match credit_shares_at(self.reader, epoch, &credits) {
                Ok(shares) => points.extend(shares),
                Err(e) => return store_error(&e),
            }
        }
        let mut body = String::new();
        body.push_str("{\"dates\":");
        push_json_arr(&mut body, &labels, |out, label| push_json_str(out, label));
        body.push_str(",\"series\":");
        push_json_arr(&mut body, credits.iter().enumerate(), |out, (c, credit)| {
            out.push_str("{\"credit\":");
            push_json_str(out, credit);
            out.push_str(",\"points\":");
            let series = points.iter().skip(c).step_by(credits.len().max(1));
            let dated = labels.iter().zip(series);
            push_json_arr(out, dated, |out, (label, (weight, share))| {
                out.push_str("{\"date\":");
                push_json_str(out, label);
                out.push_str(",\"weight\":");
                push_json_f64(out, *weight);
                out.push_str(",\"share\":");
                push_json_f64(out, *share);
                out.push('}');
            });
            out.push('}');
        });
        body.push('}');
        Response::ok(body)
    }

    fn churn(&self, req: &Request) -> Response {
        let from = match self.epoch_param(req, "from") {
            Ok(e) => e,
            Err(resp) => return resp,
        };
        let to = match self.epoch_param(req, "to") {
            Ok(e) => e,
            Err(resp) => return resp,
        };
        let matrix = match churn_from_store(self.reader, from, to) {
            Ok(m) => m,
            Err(e) => return store_error(&e),
        };
        let mut body = String::new();
        let _ = write!(
            body,
            "{{\"from\":{from},\"to\":{to},\"total\":{},\"labels\":",
            matrix.total
        );
        push_json_arr(&mut body, ChurnCategory::ALL, |out, c| {
            push_json_str(out, c.label())
        });
        body.push_str(",\"matrix\":");
        push_json_arr(&mut body, ChurnCategory::ALL, |out, a| {
            push_json_arr(out, ChurnCategory::ALL, |out, b| {
                let _ = write!(out, "{}", matrix.flow(a, b));
            });
        });
        body.push('}');
        Response::ok(body)
    }

    fn providers(&self, req: &Request) -> Response {
        let name = req
            .path
            .strip_prefix("/providers/")
            .and_then(|r| r.strip_suffix("/domains"))
            .unwrap_or_default();
        if name.is_empty() || name.contains('/') {
            return Response::error(400, "bad provider name");
        }
        let epoch = match self.epoch_param(req, "epoch") {
            Ok(e) => e,
            Err(resp) => return resp,
        };
        let domains = match domains_of_provider(self.reader, name, epoch) {
            Ok(d) => d,
            Err(e) => return store_error(&e),
        };
        let count = domains.len();
        let listed = domains.iter().take(MAX_DOMAINS_RENDER);
        let mut body = String::new();
        body.push_str("{\"provider\":");
        push_json_str(&mut body, name);
        let _ = write!(
            body,
            ",\"epoch\":{epoch},\"count\":{count},\"truncated\":{},\"domains\":",
            count > MAX_DOMAINS_RENDER
        );
        push_json_arr(&mut body, listed, |out, d| push_json_str(out, d));
        body.push('}');
        Response::ok(body)
    }

    fn diff(&self, req: &Request) -> Response {
        let spec = req
            .path
            .strip_prefix("/epochs/")
            .and_then(|r| r.strip_suffix("/diff"))
            .unwrap_or_default();
        let Some((a, b)) = spec.split_once("..") else {
            return Response::error(400, "bad epoch range");
        };
        let epochs = self.reader.epoch_count();
        let (Some(from), Some(to)) = (parse_usize(a), parse_usize(b)) else {
            return Response::error(400, "bad epoch range");
        };
        if from >= epochs || to >= epochs {
            return Response::error(404, "unknown epoch");
        }
        let mut added = DiffSample::new();
        let mut removed = DiffSample::new();
        let mut changed = DiffSample::new();
        let walk = self.reader.diff(from, to, |name, before, after| {
            match (before, after) {
                (None, Some(_)) => added.note(name),
                (Some(_), None) => removed.note(name),
                _ => changed.note(name),
            }
            Ok(())
        });
        if let Err(e) = walk {
            return store_error(&e);
        }
        let mut body = String::new();
        let _ = write!(
            body,
            "{{\"from\":{from},\"to\":{to},\"added\":{},\"removed\":{},\"changed\":{},\
             \"sample\":{{\"added\":{}],\"removed\":{}],\"changed\":{}]}}}}",
            added.count, removed.count, changed.count, added.names, removed.names, changed.names,
        );
        Response::ok(body)
    }
}

/// One `/diff` category: how many names fell in it, and the JSON array
/// (still open) of the first [`MAX_DIFF_SAMPLE`] of them in walk order.
struct DiffSample {
    count: usize,
    names: String,
}

impl DiffSample {
    fn new() -> Self {
        DiffSample {
            count: 0,
            names: String::from("["),
        }
    }

    fn note(&mut self, name: &str) {
        if self.count < MAX_DIFF_SAMPLE {
            if self.count > 0 {
                self.names.push(',');
            }
            push_json_str(&mut self.names, name);
        }
        self.count = self.count.saturating_add(1);
    }
}

/// Default event count for `/debug/trace` when `last` is absent.
pub const DEFAULT_TRACE_TAIL: usize = 256;
/// Hard cap on the `/debug/trace?last=N` parameter.
pub const MAX_TRACE_TAIL: usize = 4096;

/// `/metrics`: the live observability snapshot, rendered from the
/// deterministic (stable-only) view so the body depends only on what
/// the serial loop has recorded — never on cache state or thread
/// interleaving. `?format=json` selects the `mx-obs/1` JSON form;
/// the default (or `format=prometheus`/`text`) is the Prometheus text
/// exposition.
fn metrics(req: &Request) -> Response {
    match req.param("format") {
        None | Some("prometheus") | Some("text") => {
            Response::text(mx_obs::export::Snapshot::capture().prometheus_text())
        }
        Some("json") => Response::ok(mx_obs::export::Snapshot::capture().deterministic_json()),
        Some(_) => Response::error(400, "bad format parameter"),
    }
}

/// `/debug/trace?last=N`: the tail of the deterministic trace export
/// (stable events only, canonical order).
fn debug_trace(req: &Request) -> Response {
    let last = match req.param("last") {
        None => DEFAULT_TRACE_TAIL,
        Some(s) => match parse_usize(s) {
            Some(n) if n > 0 && n <= MAX_TRACE_TAIL => n,
            _ => return Response::error(400, "bad last parameter"),
        },
    };
    let snap = mx_obs::trace::TraceSnapshot::capture();
    Response::ok(snap.deterministic_json_last(Some(last)))
}

/// `/debug/attribution`: inclusive/exclusive per-stage time, serial
/// fraction and critical path, deterministic (sim-derived) form.
fn debug_attribution() -> Response {
    Response::ok(mx_obs::attrib::Attribution::capture().deterministic_json())
}

/// FNV-1a step over a byte run, the same construction the rest of the
/// codebase uses for content addressing.
fn fnv(h: &mut u64, bytes: &[u8]) {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(PRIME);
    }
}

/// A strong validator fingerprint for an open store, derived from the
/// digest sections: epoch count, labels, kinds and entry counts, plus
/// every digest record `(doc, flags, credit)` when the store carries
/// indexes. Two stores that answer any cacheable endpoint differently
/// differ in some digest record (the digest mirrors the resolved
/// rows), so their etags differ; appending an epoch always changes the
/// fingerprint.
pub fn store_etag(reader: &StoreReader<'_>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let epochs = reader.epoch_count();
    fnv(&mut h, &(epochs as u64).to_be_bytes());
    for epoch in 0..epochs {
        fnv(&mut h, reader.label(epoch).unwrap_or("").as_bytes());
        fnv(&mut h, &[0, matches!(reader.epoch_kind(epoch), Some(mx_store::EpochKind::Base)) as u8]);
        fnv(&mut h, &reader.entry_count(epoch).unwrap_or(0).to_be_bytes());
        match reader.digest_rows(epoch) {
            Err(_) => fnv(&mut h, b"\0noindex"),
            Ok(rows) => {
                for row in rows {
                    fnv(&mut h, &(row.doc as u64).to_be_bytes());
                    fnv(&mut h, &[row.has_smtp as u8, row.self_hosted as u8]);
                    fnv(&mut h, row.credit.unwrap_or("").as_bytes());
                    fnv(&mut h, &[0]);
                }
            }
        }
    }
    h
}

/// Build the `/lookup` response from a rendered row fragment — the one
/// entry point both the live path and the hot-row cache path share, so
/// their bytes cannot diverge.
pub fn lookup_response(domain: &str, epoch: usize, fragment: &str) -> Response {
    if fragment == "null" {
        return Response::error(404, "unknown domain");
    }
    let mut body = String::new();
    body.push_str("{\"domain\":");
    push_json_str(&mut body, domain);
    let _ = write!(body, ",\"epoch\":{epoch},\"row\":{fragment}}}");
    Response::ok(body)
}

/// Hot-row cache key for one `(domain, epoch)` lookup.
pub fn row_cache_key(domain: &str, epoch: usize) -> String {
    format!("{domain}@{epoch}")
}

/// The row-cache probe for a request, when it is a well-formed lookup:
/// `(key, domain, epoch)`.
pub fn row_cache_probe(state: &ServeState<'_>, req: &Request) -> Option<(String, String, usize)> {
    if Endpoint::of(&req.path) != Endpoint::Lookup {
        return None;
    }
    let domain = req.param("domain")?;
    if domain.is_empty() || domain.len() > 255 {
        return None;
    }
    let epochs = state.reader.epoch_count();
    let epoch = match req.param("epoch") {
        None => epochs.saturating_sub(1),
        Some(s) => parse_usize(s).filter(|e| *e < epochs)?,
    };
    Some((row_cache_key(domain, epoch), domain.to_string(), epoch))
}

/// Rendered-JSON cache key: the normalized request target. `None` for
/// requests that must not be served from cache (`/healthz` stays live,
/// unknown endpoints are cheap 404s, and the `/metrics` + `/debug/*`
/// introspection bodies change between requests).
pub fn json_cache_key(req: &Request) -> Option<String> {
    if !Endpoint::of(&req.path).is_data_plane() {
        return None;
    }
    let mut key = req.path.clone();
    for (k, v) in &req.query {
        key.push('&');
        key.push_str(k);
        key.push('=');
        key.push_str(v);
    }
    Some(key)
}

/// Render one store row as a JSON fragment (the hot-row cache value).
pub fn render_row(row: &mx_store::Row<'_>) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"has_smtp\":{},\"dominant\":", row.has_smtp());
    match row.dominant() {
        Some(s) => push_json_str(&mut out, s.provider),
        None => out.push_str("null"),
    }
    out.push_str(",\"shares\":");
    push_json_arr(&mut out, row.shares(), |out, s| {
        out.push_str("{\"provider\":");
        push_json_str(out, s.provider);
        out.push_str(",\"company\":");
        match s.company {
            Some(c) => push_json_str(out, c),
            None => out.push_str("null"),
        }
        out.push_str(",\"weight\":");
        push_json_f64(out, s.weight);
        out.push('}');
    });
    out.push('}');
    out
}

/// Should this request's successful response land in the JSON cache?
/// (Only 200s are cached; errors are cheap to re-render.)
pub fn cacheable(resp: &Response) -> bool {
    resp.status == 200
}

/// Is this a HEAD request (body rendered for length, then omitted)?
pub fn head_only(req: &Request) -> bool {
    req.method == Method::Head
}

/// Strict bounded decimal parse for path/query numbers.
fn parse_usize(s: &str) -> Option<usize> {
    if s.is_empty() || s.len() > 6 || !s.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    s.parse::<usize>().ok()
}

/// Map a store-layer failure to a response: epoch misses are client
/// errors, anything else is a 500 (and counts as `errored` in the
/// reconciliation identity, never a dropped connection).
fn store_error(e: &StoreError) -> Response {
    match e {
        StoreError::EpochOutOfRange { .. } => Response::error(404, "unknown epoch"),
        _ => Response::error(500, "store error"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_classification() {
        assert_eq!(Endpoint::of("/healthz"), Endpoint::Healthz);
        assert_eq!(Endpoint::of("/metrics"), Endpoint::Metrics);
        assert_eq!(Endpoint::of("/debug/trace"), Endpoint::DebugTrace);
        assert_eq!(Endpoint::of("/debug/attribution"), Endpoint::DebugAttribution);
        assert_eq!(Endpoint::of("/debug/nope"), Endpoint::Other);
        assert_eq!(Endpoint::of("/lookup"), Endpoint::Lookup);
        assert_eq!(Endpoint::of("/providers/google/domains"), Endpoint::Providers);
        assert_eq!(Endpoint::of("/epochs/0..2/diff"), Endpoint::Diff);
        assert_eq!(Endpoint::of("/nope"), Endpoint::Other);
        assert_eq!(Endpoint::of("/providers//x"), Endpoint::Other);
    }

    #[test]
    fn parse_usize_bounds() {
        assert_eq!(parse_usize("0"), Some(0));
        assert_eq!(parse_usize("123456"), Some(123_456));
        assert_eq!(parse_usize("1234567"), None);
        assert_eq!(parse_usize(""), None);
        assert_eq!(parse_usize("-1"), None);
        assert_eq!(parse_usize("1x"), None);
    }

    #[test]
    fn lookup_response_paths_share_bytes() {
        let live = lookup_response("a.com", 2, "{\"has_smtp\":true}");
        let cached = lookup_response("a.com", 2, "{\"has_smtp\":true}");
        assert_eq!(live, cached);
        assert_eq!(lookup_response("a.com", 0, "null").status, 404);
    }
}
