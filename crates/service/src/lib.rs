//! # psl-service — a concurrent, multi-version PSL query server
//!
//! The paper's core harm is software answering privacy-boundary questions
//! with *outdated* Public Suffix List copies. This crate operationalises
//! the remedy: a long-running query server over the repo's matcher and
//! versioned history, with hot snapshot reload so the served list can be
//! kept current without dropping a single query.
//!
//! Layers, from pure to I/O:
//!
//! - [`protocol`] — the line-delimited command grammar (pure parsing);
//! - [`lookup`] — the suffix/site resolution path shared with the CLI;
//! - [`cache`] — the bounded per-worker LRU for lookup results;
//! - [`metrics`] — counters + sharded latency histograms, dumped by `STATS`;
//! - [`engine`] — protocol semantics over a [`psl_core::SnapshotStore`]
//!   (epoch-based hot reload) of owned [`psl_core::List`]s, into which a
//!   compiled snapshot file is loaded too, and a [`psl_history::History`]
//!   (`RELOAD <version>`) with its one [`psl_core::VersionedList`], which
//!   answers `ASOF` time-travel lookups in place;
//! - [`http`] — a minimal HTTP/1.1 parser + the admin-plane routes
//!   (`/health`, `/stats`, `/versions`, `/cache`, `/reload`);
//! - [`reactor`] — the nonblocking epoll event loop: sharded workers,
//!   request pipelining, write backpressure, admission control;
//! - [`server`] — listener setup, reactor worker threads, file watcher;
//! - [`loadgen`] — the epoll load generator: thousands of pipelined or
//!   lock-step connections, every answer optionally checked.
//!
//! ## Protocol quickstart
//!
//! ```text
//! $ pslharm serve --addr 127.0.0.1:7378 &
//! $ printf 'SITE maps.google.com\n' | nc 127.0.0.1 7378
//! OK google.com
//! ```
//!
//! See `README.md` § "Serving" for the full protocol reference.

// Unsafe is denied crate-wide and re-allowed in exactly one leaf module:
// `reactor::epoll`, the thin extern-"C" epoll/eventfd binding (the std
// library exposes no readiness API and new dependencies are off the table).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod http;
pub mod loadgen;
pub mod lookup;
pub mod metrics;
pub mod protocol;
pub mod reactor;
pub mod server;

pub use engine::{
    frozen_clock, monotonic_clock, owned_store, ConnState, Control, Engine, EngineConfig,
    WorkerState,
};
pub use loadgen::{fetch_stats, query_once, LoadgenConfig, LoadgenReport};
pub use metrics::{Metrics, NetStats, StatsReport};
pub use protocol::{parse_command, Command, Limits, ProtoError};
pub use reactor::ReactorOptions;
pub use server::{load_list_file, Server, ServerConfig, StopHandle};
