//! # econcast-service — the batched policy-serving subsystem
//!
//! The paper's (P4) solver tells a power-budgeted node its optimal
//! listen/transmit policy; this crate turns the fast kernels built on
//! it into a request/response *service*: accept
//! `PolicyRequest { budgets ρ_i, objective, σ, tolerance }` batches,
//! return per-node `(listen, transmit)` policies plus the
//! weak-duality achievability certificate of `econcast-oracle::gap`.
//!
//! ## The tier ladder
//!
//! Every request probes the exact-match cache first; a miss is solved
//! by the tier its shape selects:
//!
//! | tier | serves | cost | accuracy |
//! |------|--------|------|----------|
//! | **Exact** (LRU) | any previously-solved canonical instance | O(1) lookup | bit-identical to the producing solve |
//! | **ClosedForm** | any homogeneous clique | scalar-dual bisection over an O(1) Gibbs summary | exact symmetric optimum |
//! | **Solver** | heterogeneous instances up to the enumeration ceiling | full (P4) dual descent | dual residual ≤ tolerance tier |
//!
//! Instances are canonicalized before keying (budgets sorted,
//! tolerance quantized onto decade tiers — see
//! `econcast_statespace::instance`), so permutations of one instance
//! share a cache entry; responses are always rotated back into the
//! caller's node order. Per-tier hit counters are exposed as a
//! [`ServiceStats`] snapshot.
//!
//! ## Batching
//!
//! [`PolicyService::serve_batch`] deduplicates canonically-identical
//! requests within a batch and fans the remaining independent solves
//! across `econcast-parallel` workers, one reusable solver workspace
//! pool per worker. Responses are **bit-identical at any worker
//! count** and come back in request order.
//!
//! ## Routing, wire API and deployment layer
//!
//! One router, [`ClusterRouter`], scatters each batch over a
//! consistent-hash ring ([`HashRing`]) of slots — in-process shards
//! or [`RemoteShard`] backends, each behind its own lock — and gathers
//! the answers in request order; its fallback solver answers whatever
//! no slot can (a down backend, an invalid request), bit-identically.
//!
//! ```text
//!   PolicyClient ──TCP──▶ Acceptor ─▶ ClusterRouter ─┬─ Local shard   (PolicyService)
//!                         (one per     (ring: read-  ├─ Remote slot   (RemoteShard ──TCP──▶ backend)
//!                          front-end)   mostly lock) ├─ Retired slot  (owns no keys)
//!                                                    └─ fallback      (PolicyService)
//! ```
//!
//! [`PolicyServer`] serves the router over local shards
//! ([`ShardRouter`]) on the versioned, CRC-checked
//! `econcast-proto::service` message family: an [`Acceptor`]
//! (thread-per-connection, bounded pool, draining shutdown) whose
//! connection loop dispatches every wire message in one place — the
//! cluster crate's front is the same acceptor over remote slots.
//! [`PolicyClient`] is the matching pipelined client. Every socket on
//! both sides is non-blocking and waits in one place,
//! [`ready::wait`].

pub mod admission;
pub mod cache;
pub mod client;
pub mod driver;
pub mod ready;
pub mod remote;
pub mod request;
pub mod router;
pub mod server;
pub mod service;
pub mod shard;
pub mod stats;
pub mod workload;

#[cfg(test)]
#[path = "../tests/common/gen.rs"]
mod gen;

pub use admission::{degraded_tolerance, Admission, AdmissionController};
pub use cache::{CachedPolicy, LruCache};
pub use client::{PolicyClient, ReplyFrames, Ticket, WireResult};
pub use remote::{RemoteConfig, RemoteShard, RemoteTicket};
pub use request::{NodePolicy, PolicyRequest, PolicyResponse, ServiceError};
pub use router::{ClusterConfig, ClusterRouter, ClusterStats, SlotSpec};
pub use server::{Acceptor, Answer, PolicyServer, Served, ServerConfig, ServerHandle};
pub use service::{PolicyService, ServiceConfig};
pub use shard::{HashRing, RouterConfig, ShardRouter};
pub use stats::ServiceStats;

// The tier and kernel discriminants live in the proto crate (they
// are part of the wire format); re-export them as native API too.
pub use econcast_proto::service::{PolicyKernel, ServedTier, ServiceErrorCode};
