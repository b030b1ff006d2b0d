//! `aurora-serve`: a memoized design-space-exploration service over the
//! Aurora III simulator.
//!
//! The rest of the workspace answers *one sweep at a time*: a binary
//! builds a config × workload grid, drains it, prints a table and
//! exits — and the next invocation re-simulates everything. This crate
//! turns that into a *service with memory*. A long-lived daemon
//! (`aurora-serve`) answers design-space queries over a unix socket or
//! localhost HTTP; every query decomposes into cells keyed by
//! `(config fingerprint, trace hash, mode)`; cells seen before — by
//! *any* previous query or process — are answered instantly from a
//! sharded, crash-safe, persistent [`ResultStore`], and only the cold
//! remainder is simulated, batched onto the same work-stealing pool the
//! bench harness uses, with results streamed back as they complete.
//!
//! * [`store`] — the persistent memo (on-disk format, recovery,
//!   versioning),
//! * [`proto`] — the wire protocol (requests, response lines, JSON),
//! * [`engine`] — warm/cold decomposition and the pool bridge,
//! * [`server`] / [`client`] — unix-socket and HTTP transports,
//! * [`json`] — the workspace's JSON reader/writer (the `aurora-json`
//!   crate, re-exported).
//!
//! `docs/SERVICE.md` documents the protocol and operational behaviour;
//! the `aurora-query` binary is the reference client.
//!
//! # In-process example
//!
//! The daemon is a thin shell around [`Engine`], which embeds directly:
//!
//! ```
//! use aurora_serve::{Engine, ResultStore};
//! use aurora_serve::proto::{QueryRequest, ResponseLine};
//!
//! let dir = std::env::temp_dir().join("aurora-serve-doc-example");
//! let engine = Engine::new(ResultStore::open(&dir).unwrap());
//! let req = QueryRequest::from_json_str(
//!     r#"{"configs": [{"model": "small"}], "workloads": ["eqntott"],
//!         "scale": "test", "mode": "block"}"#,
//! )
//! .unwrap();
//! let mut lines = Vec::new();
//! let summary = engine.execute(&req, &mut |l: &ResponseLine| lines.push(l.clone())).unwrap();
//! assert_eq!(summary.cells, 1);
//! // Same query again: answered from the store, nothing simulated.
//! let warm = engine.execute(&req, &mut |_l: &ResponseLine| {}).unwrap();
//! assert_eq!(warm.memo_hits, 1);
//! assert_eq!(warm.simulated, 0);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod engine;
pub mod proto;
pub mod server;
pub mod store;

pub use aurora_json as json;
pub use engine::Engine;
pub use store::{CellKey, CellValue, Mode, ResultStore, SampledCell};
