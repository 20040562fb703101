//! Event-sourced incremental measurement (`mx-delta`).
//!
//! The paper measures the mail ecosystem as nine semi-annual
//! snapshots, re-crawling every domain each time even though
//! epoch-over-epoch churn is small. This crate turns that coarse
//! cadence into a fine-grained series: a typed stream of zone-update
//! events ([`event`]) drives a reconciler ([`reconcile`]) that
//! re-resolves and re-scans **only the domains an event batch
//! actually dirtied**, hands those rows to the staged inference
//! engine it holds ([`mx_infer::Engine`], the one `Pipeline::run`
//! applies once), which re-attributes only what the change can reach,
//! then hands only the changed rows to the store writer it holds hot
//! ([`mx_store::StoreWriter::add_epoch_changes`]), which appends them
//! as a true delta epoch and emits the grown file
//! ([`mx_store::StoreWriter::snapshot`]; the reopen path,
//! [`mx_store::StoreWriter::append_epochs`], serves stores loaded
//! back from disk).
//!
//! The house invariant carries over undiminished: the incrementally
//! grown store is byte-identical to a full-pipeline recompute of the
//! same end state (proved by `tests/delta_gate.rs` across seeds,
//! event rates and thread counts). The [`world`] module explains the
//! content-addressing that makes this possible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod gen;
pub mod reconcile;
pub mod world;

pub use event::{decode_log, encode_log, AddSpec, CertTarget, DeltaError, Event, SCHEMA};
pub use gen::{generate_events, EventStreamConfig};
pub use reconcile::{
    company_map, delta_pipeline, epoch_label, full_recompute, provider_knowledge, run_incremental,
    BatchStats, Reconciler,
};
pub use world::{
    materialize, pinned_date, ApplyEffect, DeltaWorld, Hosting, ProviderSpec, WorldState,
    PROVIDERS,
};
