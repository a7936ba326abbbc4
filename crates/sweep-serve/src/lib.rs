//! `sweep-serve` — a resident policy-evaluation server over loaded trace corpora.
//!
//! A one-shot `repro sweep` pays corpus load, decode and alone-run normalization on
//! every invocation. `sweepd` turns that cost into a one-time startup price: corpora
//! are mapped and materialized once per process lifetime (the PR 7 zero-copy replay
//! path), evaluation results are memoized content-addressed, and any number of clients
//! ask for `(corpus, policy, mix)` cells over a small HTTP/1.1 JSON API — with every
//! served byte identical to what a fresh `repro sweep` would print for that cell.
//!
//! The pieces (see `docs/serving.md` for the API and semantics):
//!
//! * [`http`] — a bounded, dependency-free HTTP/1.1 subset (hard header/body limits,
//!   clean 4xx on anything malformed);
//! * [`fairqueue`] — the bounded job queue with per-client round-robin scheduling and
//!   min/max service accounting;
//! * [`memo`] — content-addressed memoization plus `sweep.progress` persistence, the
//!   resumable-sweep substrate;
//! * [`registry`] — corpora resident for the daemon's lifetime;
//! * [`server`] — the daemon itself (`sweepd`); [`client`] — the matching client
//!   (`sweepctl`, tests, the repository's benchmark);
//! * [`json`] — the canonical (byte-deterministic) result serialization.

pub mod client;
pub mod fairqueue;
pub mod http;
pub mod json;
pub mod memo;
pub mod registry;
pub mod server;

pub use client::{BackoffPolicy, Client, HttpResponse};
pub use server::{Server, ServerConfig, ServerHandle};
