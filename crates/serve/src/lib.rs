//! # mx-serve — a fault-tolerant HTTP query service over the snapshot store
//!
//! The measurement results only matter if they can be *served*: this
//! crate puts a dependency-free HTTP/1.1 front-end over the zero-copy
//! [`mx_store::StoreReader`], engineered robustness-first. The design
//! follows the house rules every other subsystem obeys:
//!
//! - **Total parsing.** The request parser ([`http`]) is hand-rolled
//!   under the full mx-lint `untrusted` discipline: hard limits on the
//!   request line, header count, header bytes, URI length and body
//!   framing; every violation is a typed [`http::HttpError`] mapped to
//!   a 4xx status — never a panic. The dynamic twin lives in
//!   `tests/malformed_input.rs`.
//! - **Degrade, don't die.** The robustness kernel ([`server`]) gives
//!   every connection read deadlines on the event loop's simulated
//!   millisecond timeline (never a host clock), bounds the in-flight
//!   request queue with explicit load shedding (503 + `Retry-After`
//!   once it is full), caps concurrent
//!   connections, evicts slow-loris clients, reaps idle keep-alives,
//!   and drains gracefully on shutdown.
//! - **Chaos-tested.** [`mx_net::ConnFaultPlan`] extends the fault
//!   plan's pure-coin style to the serving transport ([`transport`]):
//!   byte-dribble, mid-request disconnect, garbage bytes and stalled
//!   readers, all a pure function of `(conn_id, seed)`.
//! - **Determinism.** The same request trace yields byte-identical
//!   response streams at any `mx_par` thread count and under any
//!   benign chaos seed (`tests/serve_gate.rs`); `serve.*` obs counters
//!   reconcile exactly: `served + errored + shed + evicted ==
//!   accepted`.
//!
//! Endpoints (all GET/HEAD, JSON bodies rendered deterministically by
//! [`render`], cached by the two-tier [`cache`]):
//!
//! | path | answer |
//! |------|--------|
//! | `/lookup?domain=D[&epoch=E]` | the domain's provider shares |
//! | `/market?epoch=E[&top=N]` | company market shares |
//! | `/series?credit=C...` | per-epoch weight/share series |
//! | `/churn?from=A&to=B` | the Figure-7 flow matrix |
//! | `/providers/{name}/domains?epoch=E` | postings list |
//! | `/epochs/{a}..{b}/diff` | added/removed/changed rows |
//! | `/healthz` | liveness — answered even under saturation |
//! | `/metrics[?format=json]` | live obs snapshot (Prometheus text, or the deterministic JSON) |
//! | `/debug/trace?last=N` | the stable tail of the trace timeline |
//! | `/debug/attribution` | per-stage inclusive/exclusive time + critical path |
//!
//! Every cacheable endpoint (the data-plane rows above `/healthz`)
//! carries a strong `ETag` derived from the store's digest sections
//! ([`store_etag`]); `If-None-Match` revalidation is answered `304`
//! from the serial loop, cheaper than either cache tier. Appending an
//! epoch to the store changes the fingerprint, so clients never
//! revalidate stale data.
//!
//! The three introspection endpoints are answered from the serial
//! event loop (never cached, never shed), and their bodies are
//! byte-identical across thread counts and reruns — `scripts/ci.sh`
//! double-runs them and compares octets. Every request also leaves a
//! deterministic trace of `serve.req.*` events (parse → cache probe →
//! render → write, plus shed/evict marks) in the `mx_obs::trace` ring
//! when `MX_OBS_TRACE=1`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod http;
pub mod render;
pub mod router;
pub mod server;
pub mod transport;

pub use http::{HttpError, Method, Parsed, Request, RequestParser};
pub use render::{etag_value, Response};
pub use router::{store_etag, ServeState};
pub use server::{RunReport, Server, ServerConfig};
pub use transport::{apply_chaos, ClientConn, CloseReason, ConnTranscript, Trace};
